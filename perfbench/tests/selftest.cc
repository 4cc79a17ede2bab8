// Self-checks of the benchmark's own machinery: exact quantiles, the Zipf
// sampler, seeded inputs, the pair permutation, reply decoding, the
// verifier, the layer-order check and the choice of steal windows. Exit
// status 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "api/distance_oracle.h"
#include "gen/catalog.h"
#include "inputs.h"
#include "layers.h"
#include "perturb/traffic_feed.h"
#include "recorder.h"
#include "routing/dijkstra.h"
#include "serve.h"
#include "server/binary_protocol.h"
#include "verify.h"
#include "wire.h"

namespace {

using namespace perfbench;

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void QuantilesAreExact() {
  Recorder r;
  for (int v = 100; v >= 1; --v) r.Add(v);
  Check(r.Quantile(0.5) == 50, "p50 of 1..100 is 50");
  Check(r.Quantile(0.99) == 99, "p99 of 1..100 is 99");
  Check(r.Quantile(1.0) == 100, "p100 of 1..100 is 100");
  Check(r.Quantile(0.001) == 1, "p0.1 of 1..100 is 1");
  Check(r.Beyond(0.5) == 50, "50 samples beyond p50 of 100");
  Check(r.Beyond(0.99) == 1, "1 sample beyond p99 of 100");

  Recorder big;
  for (int v = 1; v <= 1000; ++v) big.Add((v * 7919) % 1000 + 1);
  Check(big.Quantile(0.99) == 990 && big.Beyond(0.99) == 10,
        "p99 of a permutation of 1..1000 is 990 with 10 beyond");
  Check(big.Quantile(0.5) == 500, "p50 of 1..1000 is 500");

  Recorder one;
  one.Add(7);
  Check(one.Quantile(0.5) == 7 && one.Quantile(0.99) == 7,
        "single sample is every quantile");

  MetricSheet sheet;
  Recorder few;
  for (int v = 1; v <= 500; ++v) few.Add(v);
  sheet.AddQuantile("few_p99", "ns", few, 0.99, 1);
  sheet.AddQuantile("ok_p50", "ns", few, 0.5, 1);
  Recorder zeros;
  for (int v = 0; v < 100; ++v) zeros.Add(0);
  sheet.AddQuantile("zero_p50", "ns", zeros, 0.5, 1);
  const std::vector<std::string> bad = sheet.Invalid();
  Check(bad.size() == 2 && bad[0] == "few_p99" && bad[1] == "zero_p50",
        "sheet rejects a p99 with 5 beyond and an all-zero p50");
}

void ZipfFrequencies() {
  const Zipf zipf(16384, 1.0);
  double total = 0;
  for (std::size_t r = 0; r < zipf.size(); ++r) total += zipf.Probability(r);
  Check(std::abs(total - 1.0) < 1e-9, "Zipf probabilities sum to 1");
  Check(std::abs(zipf.Probability(0) / zipf.Probability(9) - 10.0) < 1e-9,
        "Zipf(1) rank 1 is 10x rank 10");
  const std::size_t draws = 1000000;
  std::vector<std::size_t> counts(zipf.size(), 0);
  ah::Rng rng(7);
  for (std::size_t i = 0; i < draws; ++i) ++counts[zipf.Sample(rng)];
  for (const std::size_t rank : {0, 1, 2, 9, 99, 999}) {
    const double p = zipf.Probability(rank);
    const double expected = p * draws;
    const double sigma = std::sqrt(draws * p * (1 - p));
    Check(std::abs(static_cast<double>(counts[rank]) - expected) < 5 * sigma,
          "Zipf rank " + std::to_string(rank + 1) + " frequency within 5 sigma");
  }
  std::size_t head = 0;
  for (std::size_t r = 0; r < 100; ++r) head += counts[r];
  double head_p = 0;
  for (std::size_t r = 0; r < 100; ++r) head_p += zipf.Probability(r);
  Check(std::abs(static_cast<double>(head) / draws - head_p) < 0.005,
        "Zipf top-100 share within 0.5 points");
}

void PermutationIsInjective() {
  const PairPermutation perm(51096, 3);
  std::set<std::pair<NodeId, NodeId>> seen;
  bool in_range = true;
  for (std::uint64_t slot = 0; slot < 200000; ++slot) {
    const Pair p = perm.At((std::uint64_t{5} << 26) + slot);
    in_range = in_range && p.first < 51096 && p.second < 51096;
    seen.insert(p);
  }
  Check(in_range, "permuted pairs are node ids");
  Check(seen.size() == 200000, "200k distinct slots give 200k distinct pairs");
}

void InputsAreSeeded() {
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec spec;
    FindWorkload(name, &spec);
    const Inputs a(spec, 51096, 1);
    const Inputs b(spec, 51096, 1);
    const Inputs c(spec, 51096, 2);
    Check(a.PointStreamHash(kStreamPoint0, 5000) ==
              b.PointStreamHash(kStreamPoint0, 5000),
          name + ": same seed, same point stream");
    Check(a.PointStreamHash(kStreamPoint0, 5000) !=
              c.PointStreamHash(kStreamPoint0, 5000),
          name + ": another seed, another point stream");
    Check(a.BulkStreamHash(kStreamBulk, 6) == b.BulkStreamHash(kStreamBulk, 6),
          name + ": same seed, same bulk stream");
    Check(a.BulkStreamHash(kStreamBulk, 6) != c.BulkStreamHash(kStreamBulk, 6),
          name + ": another seed, another bulk stream");
    std::size_t paths = 0;
    for (std::uint64_t i = 0; i < 10000; ++i) {
      paths += a.Point(kStreamPoint0, i).cls == Cls::kPath ? 1 : 0;
    }
    Check(std::abs(static_cast<double>(paths) / 10000 - spec.path_share) < 0.02,
          name + ": path share matches the mix");
    const BulkReq m = a.Bulk(kStreamBulk, 1);
    Check(m.cls == Cls::kMatrix && m.sources.size() == spec.matrix_side,
          name + ": odd bulk requests are matrices of the stated side");
  }
}

void DecodersReject() {
  Answer a;
  Check(DecodeV1(Cls::kDist, "OK d 42", &a) && a.dist == 42, "v1 d decodes");
  Check(DecodeV1(Cls::kDist, "OK d unreachable", &a) && a.dist == ah::kInfDist,
        "v1 unreachable decodes");
  Check(!DecodeV1(Cls::kDist, "ERR overload busy", &a), "v1 ERR rejected");
  Check(!DecodeV1(Cls::kDist, "OK d 4x", &a), "v1 junk rejected");
  Check(DecodeV1(Cls::kPath, "OK p 7 3 1 2 3", &a) && a.dist == 7 &&
            a.nodes == std::vector<NodeId>{1, 2, 3},
        "v1 p decodes");
  Check(!DecodeV1(Cls::kPath, "OK p 7 3 1 2", &a), "v1 short path rejected");
  ah::server::Reply reply;
  reply.kind = ah::server::RequestKind::kBatch;
  reply.dists = {3, 4, ah::kInfDist};
  const std::string frame =
      ah::server::EncodeReplyFrame(reply, ah::server::Opcode::kBatch, 9);
  ah::server::FrameHeader header;
  std::string_view payload;
  ah::server::TryReadFrame(frame, &header, &payload);
  Check(DecodeV2(Cls::kBatch, header, payload, &a) && a.count == 3 &&
            a.hash == HashDists(reply.dists.data(), 3),
        "v2 b decodes to the fingerprint of its distances");
  Check(DecodeV1(Cls::kBatch, "OK b 3 3 4 unreachable", &a) &&
            a.hash == HashDists(reply.dists.data(), 3),
        "v1 and v2 b fingerprints agree");
}

void VerifierRejectsCorruption() {
  // Three graph versions: every arc reweighted between consecutive ones.
  std::vector<ah::Graph> versions;
  versions.push_back(ah::MakeScaledDataset(*ah::FindDataset("DE"), 1.0 / 256));
  ah::TrafficFeedParams params;
  params.batch_fraction = 1.0;
  ah::TrafficFeed feed(versions[0], params);
  for (int v = 1; v < 3; ++v) {
    ah::Graph next = versions.back();
    ah::ApplyWeightDeltas(&next, feed.NextBatch());
    versions.push_back(std::move(next));
  }
  const ah::Graph& g = versions[0];
  Grid grid;
  grid.side = 4;
  for (NodeId i = 0; i < 4; ++i) {
    grid.sources.push_back(i * 7);
    grid.targets.push_back(static_cast<NodeId>(g.NumNodes() - 1 - i * 5));
  }
  std::vector<GridReference> grids;
  for (const ah::Graph& v : versions) grids.emplace_back(v, grid);
  ah::Dijkstra dijkstra(g);
  bool exact = true;
  for (std::size_t p = 0; p < 16; ++p) {
    const Pair st = grid.At(p);
    exact = exact && grids[0].At(p) == dijkstra.Distance(st.first, st.second);
  }
  Check(exact, "grid reference equals point-to-point Dijkstra");

  References pooled;
  pooled.pooled = true;
  for (std::size_t v = 0; v < versions.size(); ++v) {
    pooled.versions.push_back(&versions[v]);
    pooled.grids.push_back(&grids[v]);
  }
  // A pool pair whose distance differs in every version.
  std::size_t pool = 0;
  while (pool + 1 < 16 && (grids[0].At(pool) == grids[1].At(pool) ||
                           grids[1].At(pool) == grids[2].At(pool) ||
                           grids[0].At(pool) == grids[2].At(pool))) {
    ++pool;
  }
  PointReq d;
  d.s = grid.At(pool).first;
  d.t = grid.At(pool).second;
  d.pool = static_cast<std::int32_t>(pool);
  Check(VerifyPoint(pooled, d, 0, grids[0].At(pool), nullptr),
        "verifier accepts the exact distance");
  Check(!VerifyPoint(pooled, d, 0, grids[0].At(pool) + 1, nullptr),
        "verifier rejects a corrupted distance");
  // Sent at generation 2: version 1 (confirmed) or 2 (reload in flight).
  Check(VerifyPoint(pooled, d, 2, grids[1].At(pool), nullptr) &&
            VerifyPoint(pooled, d, 2, grids[2].At(pool), nullptr),
        "verifier accepts either epoch adjacent to the send");
  Check(!VerifyPoint(pooled, d, 2, grids[0].At(pool), nullptr),
        "verifier rejects an answer from an epoch already retired");
  Check(!VerifyPoint(pooled, d, 1, grids[2].At(pool), nullptr),
        "verifier rejects an answer from an epoch not yet reloaded");

  PointReq p = d;
  p.cls = Cls::kPath;
  const Dist length = grids[0].At(pool);
  const std::vector<NodeId> path = dijkstra.Path(d.s, d.t);
  Check(VerifyPoint(pooled, p, 0, length, &path), "verifier accepts the Dijkstra path");
  Check(!VerifyPoint(pooled, p, 0, length + 1, &path),
        "verifier rejects a corrupted path length");
  Check(!VerifyPoint(pooled, p, 0, length, nullptr), "verifier rejects a missing path");
  if (path.size() >= 3) {
    std::vector<NodeId> broken = path;
    broken.erase(broken.begin() + static_cast<long>(broken.size() / 2));
    Check(!VerifyPoint(pooled, p, 0, length, &broken),
          "verifier rejects a path with a node removed");
  }
  std::vector<NodeId> wrong_end = path;
  wrong_end.back() = grid.targets[(pool + 1) % 4];
  Check(!VerifyPoint(pooled, p, 0, length, &wrong_end),
        "verifier rejects a path ending elsewhere");

  BulkReq batch;
  batch.cls = Cls::kBatch;
  for (std::int32_t q = 0; q < 16; ++q) {
    batch.pair_pool.push_back(q);
    batch.pairs.push_back(grid.At(static_cast<std::size_t>(q)));
  }
  BulkReq matrix;
  matrix.cls = Cls::kMatrix;
  matrix.sources = grid.sources;
  matrix.targets = grid.targets;
  matrix.source_idx = {0, 1, 2, 3};
  matrix.target_idx = {0, 1, 2, 3};
  for (const BulkReq* req : {&batch, &matrix}) {
    const std::string what = ClsName(req->cls);
    std::vector<Dist> good = ExpectedBulk(grids[0], *req);
    Check(VerifyBulk(pooled, *req, 0, good.size(), HashDists(good.data(), good.size())),
          "verifier accepts the exact " + what);
    std::vector<Dist> corrupted = good;
    corrupted[static_cast<std::size_t>(pool)] += 1;
    Check(!VerifyBulk(pooled, *req, 0, corrupted.size(),
                      HashDists(corrupted.data(), corrupted.size())),
          "verifier rejects a " + what + " with one corrupted distance");
    Check(!VerifyBulk(pooled, *req, 0, good.size() - 1,
                      HashDists(good.data(), good.size() - 1)),
          "verifier rejects a " + what + " missing a distance");
    const std::vector<Dist> later = ExpectedBulk(grids[2], *req);
    Check(!VerifyBulk(pooled, *req, 0, later.size(), HashDists(later.data(), later.size())),
          "verifier rejects a " + what + " from another epoch");
  }

  // Fresh pairs: the pinned kernel is the reference.
  const auto oracle = ah::MakeOracle("ch", g);
  const auto session = oracle->NewSession();
  References fresh;
  fresh.versions.push_back(&g);
  fresh.sessions.push_back(session.get());
  fresh.oracles.push_back(oracle.get());
  Check(VerifyPoint(fresh, d, 0, grids[0].At(pool), nullptr) &&
            !VerifyPoint(fresh, d, 0, grids[0].At(pool) + 1, nullptr),
        "fresh-pair verifier accepts the kernel distance, rejects a corrupted one");
  std::vector<Dist> cells = oracle->DistanceMatrix(matrix.sources, matrix.targets, 1);
  Check(VerifyBulk(fresh, matrix, 0, cells.size(), HashDists(cells.data(), cells.size())),
        "fresh-pair verifier accepts the kernel matrix");
  cells[3] += 1;
  Check(!VerifyBulk(fresh, matrix, 0, cells.size(), HashDists(cells.data(), cells.size())),
        "fresh-pair verifier rejects a corrupted matrix");
}

void LayerOrderIsChecked() {
  Check(LayerOrder(1, 2, 3, 4, false) == Order::kStrict, "nested medians are ordered");
  Check(LayerOrder(1, 2, 3, 2.9, false) == Order::kWithinTolerance,
        "a 3% swap is within tolerance");
  Check(LayerOrder(1, 2, 3, 2.5, false) == Order::kViolated,
        "tcp 17% below stack is a violation");
  Check(LayerOrder(3, 2, 4, 5, false) == Order::kViolated,
        "kernel above engine is a violation for point classes");
  Check(LayerOrder(3, 2, 4, 5, true) == Order::kStrict,
        "bulk classes leave the one-thread kernel out");
  Check(LayerOrder(1, 4, 3, 5, true) == Order::kViolated,
        "engine 33% above stack is a violation for bulk classes");
}

void StealWindowsAreChosen() {
  const std::vector<double> calm = {0.0, 0.02, 0.01, 0.015, 0.3, 0.001};
  Check(Measured(calm, 3) == std::vector<bool>{true, false, true, true, false, true},
        "every quiet window is measured when enough are quiet");
  const std::vector<double> noisy = {0.04, 0.02, 0.10, 0.03, 0.01, 0.06, 0.08};
  const std::vector<bool> chosen = Measured(noisy, 3);
  Check(chosen == std::vector<bool>{false, true, false, true, true, false, false},
        "the 3 quietest windows are measured when fewer are quiet");
  Check(MeasuredSteal(noisy, chosen) == 0.03 && MeasuredSteal(noisy, chosen) <= kMaxSteal,
        "the measured steal is the worst chosen window");
  const std::vector<double> stormy = {0.07, 0.12, 0.06};
  Check(MeasuredSteal(stormy, Measured(stormy, 1)) > kMaxSteal,
        "a reload set with no window under the bound is invalid");
}

}  // namespace

int main() {
  QuantilesAreExact();
  ZipfFrequencies();
  PermutationIsInjective();
  InputsAreSeeded();
  DecodersReject();
  VerifierRejectsCorruption();
  LayerOrderIsChecked();
  StealWindowsAreChosen();
  std::printf("%s (%d failures)\n", failures == 0 ? "selftest OK" : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
