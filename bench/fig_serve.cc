// fig_serve — wire-protocol throughput: v1 text vs v2 binary frames over a
// real loopback TCP round-trip. For every dataset x backend a full serving
// stack (registry -> ServerStack -> TcpServer) is started on an ephemeral
// port and three client workloads are driven through both protocols:
//
//   point   one distance query per request, pipelined
//   batch   `b` requests of AH_BENCH_BATCH pairs each
//   matrix  `m` requests of AH_BENCH_MATRIX x AH_BENCH_MATRIX locations
//
// Each (series, protocol) pair reports end-to-end queries/sec (request
// encode + wire + server parse/dispatch/compute + reply encode + client
// decode) and the fold-of-distances checksum; the v1 and v2 checksums of a
// series must be bit-identical — the cross-protocol equivalence oracle —
// and any divergence prints a "!! ... mismatch" line and fails the run.
//
// The server runs its production default: result cache ON. An untimed v1
// warming pass fills the cache, then both protocols are timed at cache-hit
// steady state — the SALT-style hot workload the serve path exists for —
// so the ratio isolates framing cost (lex/format vs fixed-width packing),
// not engine speed; fig_throughput owns the engine-bound numbers. Set
// AH_BENCH_COLD=1 to disable the cache and measure protocol + compute
// instead. No deadline is set. Latency columns are the pipelined per-query
// average (wall / queries), not tail quantiles.
//
// Point/batch queries are drawn with repetition from a hot set of
// AH_BENCH_HOTSET distinct pairs (default 512); matrices over the server's
// matrix_cache_max_cells threshold bypass the cache and exercise the
// bucketized matrix engine plus framing.
//
// Env knobs: AH_BENCH_PAIRS (point queries, default 2000), AH_BENCH_BATCH
// (pairs per batch request, default 256), AH_BENCH_MATRIX (matrix side,
// default 40), AH_BENCH_REPS (best-of, default 3), AH_BENCH_COLD,
// AH_BENCH_HOTSET, AH_BENCH_BACKENDS, AH_BENCH_SCALE, AH_BENCH_DATASETS,
// AH_BENCH_JSON.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/distance_oracle.h"
#include "api/index_registry.h"
#include "bench_common.h"
#include "bench_json.h"
#include "server/binary_protocol.h"
#include "server/line_client.h"
#include "server/protocol.h"
#include "server/server_stack.h"
#include "server/tcp_server.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace ah;
using namespace ah::bench;
using namespace ah::server;

using QueryPair = std::pair<NodeId, NodeId>;

// Comma-separated AH_BENCH_BACKENDS subset (preserving the canonical
// OracleNames() order); unset or empty = every backend.
std::vector<std::string> BackendsFromEnv() {
  std::vector<std::string> filter;
  if (const char* raw = std::getenv("AH_BENCH_BACKENDS")) {
    std::string_view rest(raw);
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      const std::string_view name = rest.substr(0, comma);
      if (!name.empty()) filter.emplace_back(name);
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
  }
  std::vector<std::string> backends;
  for (const std::string& name : OracleNames()) {
    if (filter.empty() ||
        std::find(filter.begin(), filter.end(), name) != filter.end()) {
      backends.push_back(name);
    }
  }
  return backends;
}

// SALT-style hot workload: `count` queries drawn with repetition from a
// pool of `hot_set` distinct pairs — the repeat-heavy traffic shape the
// result cache (and post-swap warm-up) exists for. hot_set >= count
// degenerates to all-distinct pairs.
std::vector<QueryPair> HotPairs(const Graph& g, std::size_t count,
                                std::size_t hot_set) {
  Rng rng(20130624);
  std::vector<QueryPair> pool;
  pool.reserve(hot_set);
  for (std::size_t i = 0; i < hot_set; ++i) {
    pool.emplace_back(static_cast<NodeId>(rng.Uniform(g.NumNodes())),
                      static_cast<NodeId>(rng.Uniform(g.NumNodes())));
  }
  std::vector<QueryPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.push_back(pool[rng.Uniform(pool.size())]);
  }
  return pairs;
}

std::vector<NodeId> RandomLocations(const Graph& g, std::size_t count,
                                    std::uint64_t salt) {
  Rng rng(20130624 + salt);
  std::vector<NodeId> nodes;
  nodes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    nodes.push_back(static_cast<NodeId>(rng.Uniform(g.NumNodes())));
  }
  return nodes;
}

// One series = the same logical workload expressed twice: as v1 text lines
// (without the trailing '\n') and as v2 Requests, plus how many distance
// answers each request carries (for the qps denominator).
struct Series {
  std::string name;
  std::vector<std::string> v1_lines;
  std::vector<Request> v2_requests;
  std::size_t queries = 0;
};

Series MakePointSeries(const std::vector<QueryPair>& pairs) {
  Series s;
  s.name = "point";
  s.queries = pairs.size();
  for (const auto& [src, dst] : pairs) {
    s.v1_lines.push_back("d " + std::to_string(src) + " " +
                         std::to_string(dst));
    Request r;
    r.kind = RequestKind::kDistance;
    r.s = src;
    r.t = dst;
    s.v2_requests.push_back(std::move(r));
  }
  return s;
}

Series MakeBatchSeries(const std::vector<QueryPair>& pairs,
                       std::size_t batch_size) {
  Series s;
  s.name = "batch";
  s.queries = pairs.size();
  for (std::size_t begin = 0; begin < pairs.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, pairs.size());
    std::string line = "b " + std::to_string(end - begin);
    Request r;
    r.kind = RequestKind::kBatch;
    for (std::size_t i = begin; i < end; ++i) {
      line += ' ';
      line += std::to_string(pairs[i].first);
      line += ' ';
      line += std::to_string(pairs[i].second);
      r.pairs.push_back(pairs[i]);
    }
    s.v1_lines.push_back(std::move(line));
    s.v2_requests.push_back(std::move(r));
  }
  return s;
}

Series MakeMatrixSeries(const Graph& g, std::size_t side,
                        std::size_t requests) {
  Series s;
  s.name = "matrix";
  s.queries = side * side * requests;
  for (std::size_t req = 0; req < requests; ++req) {
    const std::vector<NodeId> sources = RandomLocations(g, side, 2 * req);
    const std::vector<NodeId> targets = RandomLocations(g, side, 2 * req + 1);
    std::string line =
        "m " + std::to_string(side) + " " + std::to_string(side);
    for (const NodeId n : sources) {
      line += ' ';
      line += std::to_string(n);
    }
    for (const NodeId n : targets) {
      line += ' ';
      line += std::to_string(n);
    }
    Request r;
    r.kind = RequestKind::kMatrix;
    r.sources = sources;
    r.targets = targets;
    s.v1_lines.push_back(std::move(line));
    s.v2_requests.push_back(std::move(r));
  }
  return s;
}

// Distances fold with unreachable -> 0 (kInfDist would wrap the sum).
void FoldDist(Dist d, Dist* checksum) {
  if (d != kInfDist) *checksum += d;
}

// Folds every distance in a v1 reply line: the first `skip` space-separated
// tokens are the "OK <verb> [counts...]" prelude. Returns false on an ERR
// (or otherwise unparseable) reply.
bool FoldV1Reply(const std::string& line, std::size_t skip, Dist* checksum) {
  if (line.rfind("OK ", 0) != 0) return false;
  std::size_t pos = 0;
  std::size_t token = 0;
  while (pos < line.size()) {
    const std::size_t space = line.find(' ', pos);
    const std::size_t end = space == std::string::npos ? line.size() : space;
    if (token >= skip) {
      const std::string_view t(line.data() + pos, end - pos);
      if (t != "unreachable") {
        char* parse_end = nullptr;
        const unsigned long long v =
            std::strtoull(line.c_str() + pos, &parse_end, 10);
        if (parse_end != line.c_str() + end) return false;
        FoldDist(static_cast<Dist>(v), checksum);
      }
    }
    ++token;
    if (space == std::string::npos) break;
    pos = space + 1;
  }
  return true;
}

// Folds every distance in a v2 reply frame of the expected kind. Wire
// distances travel as-is (kInfDist included), so the same unreachable -> 0
// fold applies.
bool FoldV2Reply(RequestKind kind, const BinaryClient::Frame& frame,
                 Dist* checksum) {
  Reply reply;
  if (!DecodeReply(frame.header, frame.payload, &reply) ||
      reply.kind != kind) {
    return false;
  }
  if (kind == RequestKind::kDistance) FoldDist(reply.dist, checksum);
  for (const Dist d : reply.dists) FoldDist(d, checksum);
  return true;
}

struct RunResult {
  double best_seconds = 0;
  Dist checksum = 0;
  bool ok = true;
};

// Client-side pipelining window: keeps this many requests in flight —
// comfortably under the server's per-connection in-flight cap (128) and
// the admission budget configured below, so nothing is shed or
// flow-controlled into a stall regardless of the workload size.
constexpr std::size_t kWindow = 64;

// One timed v1 pass: fresh connection, pipelined lines with a bounded
// window, every reply folded into the checksum.
bool RunV1Once(std::uint16_t port, const Series& series, std::size_t skip,
               double* seconds, Dist* checksum) {
  LineClient client;
  if (!client.Connect(port)) return false;
  std::string line;
  if (!client.ReadLine(&line)) return false;  // banner
  Timer timer;
  std::size_t sent = 0;
  std::size_t replied = 0;
  while (replied < series.v1_lines.size()) {
    while (sent < series.v1_lines.size() && sent - replied < kWindow) {
      if (!client.Send(series.v1_lines[sent] + "\n")) return false;
      ++sent;
    }
    if (!client.ReadLine(&line)) return false;
    if (!FoldV1Reply(line, skip, checksum)) return false;
    ++replied;
  }
  *seconds = timer.Seconds();
  return true;
}

// One timed v2 pass: fresh negotiated connection, pipelined frames with
// the same window, replies collected by request id.
bool RunV2Once(std::uint16_t port, const Series& series, double* seconds,
               Dist* checksum) {
  BinaryClient client;
  if (!client.Connect(port)) return false;
  std::vector<std::string> bodies;
  bodies.reserve(series.v2_requests.size());
  for (const Request& r : series.v2_requests) {
    bodies.push_back(EncodeRequestBody(r));
  }
  const Opcode opcode = OpcodeForKind(series.v2_requests.front().kind);
  Timer timer;
  std::vector<std::uint64_t> ids(series.v2_requests.size(), 0);
  std::size_t sent = 0;
  std::size_t replied = 0;
  BinaryClient::Frame frame;
  while (replied < series.v2_requests.size()) {
    while (sent < series.v2_requests.size() && sent - replied < kWindow) {
      ids[sent] = client.SendRequest(opcode, bodies[sent]);
      if (ids[sent] == 0) return false;
      ++sent;
    }
    if (!client.ReadReplyFor(ids[replied], &frame)) return false;
    if (!FoldV2Reply(series.v2_requests[replied].kind, frame, checksum)) {
      return false;
    }
    ++replied;
  }
  *seconds = timer.Seconds();
  return true;
}

// Best-of-`reps` timing; the checksum comes from the first rep and every
// later rep must reproduce it (the server is deterministic, so a drift
// here is a bug, not noise).
template <typename RunOnce>
RunResult RunSeries(std::size_t reps, RunOnce&& run_once) {
  RunResult result;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    double seconds = 0;
    Dist checksum = 0;
    if (!run_once(&seconds, &checksum)) {
      result.ok = false;
      return result;
    }
    if (rep == 0) {
      result.checksum = checksum;
      result.best_seconds = seconds;
    } else {
      if (checksum != result.checksum) {
        result.ok = false;
        return result;
      }
      result.best_seconds = std::min(result.best_seconds, seconds);
    }
  }
  return result;
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

int main() {
  const std::size_t point_pairs = EnvSizeT("AH_BENCH_PAIRS", 2000);
  const std::size_t batch_size = EnvSizeT("AH_BENCH_BATCH", 256);
  const std::size_t matrix_side = EnvSizeT("AH_BENCH_MATRIX", 40);
  const std::size_t matrix_requests = EnvSizeT("AH_BENCH_MATRIX_REQUESTS", 4);
  const std::size_t reps = EnvSizeT("AH_BENCH_REPS", 3);
  const bool cold = EnvSizeT("AH_BENCH_COLD", 0) != 0;
  const std::size_t hot_set = EnvSizeT("AH_BENCH_HOTSET", 512);
  const std::vector<std::string> backends = BackendsFromEnv();
  BenchJson json("fig_serve");

  PrintHeader("fig_serve — wire protocol v1 text vs v2 binary",
              "full serving stack on loopback TCP, pipelined clients "
              "(point / batch / matrix series; qps end-to-end; v1 and v2 "
              "checksums must match bit-for-bit)");

  std::size_t mismatches = 0;
  const std::size_t num_datasets = BenchDatasetCountFromEnv(1);
  for (const PreparedDataset& d : PrepareDatasets(num_datasets)) {
    const std::vector<QueryPair> pairs =
        HotPairs(d.graph, point_pairs, hot_set);
    const std::vector<Series> series = {
        MakePointSeries(pairs),
        MakeBatchSeries(pairs, batch_size),
        MakeMatrixSeries(d.graph, matrix_side, matrix_requests),
    };

    TextTable table({"dataset", "backend", "series", "queries", "v1 qps",
                     "v2 qps", "v2/v1", "v1 us/q", "v2 us/q", "checksum"});
    for (const std::string& backend : backends) {
      Timer build;
      auto registry = std::make_shared<IndexRegistry>(
          d.graph, std::vector<std::string>{backend});
      // Cache sized to hold every distinct key in the workload so the
      // timed passes run at hit steady state (AH_BENCH_COLD=1 turns it
      // off). Admission sized so the pipelining window never sheds.
      ServerConfig config;
      config.cache_capacity = cold ? 0 : (1u << 18);
      config.admission_capacity = 4 * kWindow;
      config.admission_per_client = 0;
      config.request_timeout = std::chrono::milliseconds(0);
      config.max_batch = std::max<std::size_t>(batch_size, 4096);
      config.max_matrix_locations =
          std::max<std::size_t>(matrix_side, 512);
      ServerStack stack(registry, config);
      TcpServer tcp(stack, TcpServerConfig{});
      std::string error;
      if (!tcp.Start(&error)) {
        std::printf("!! %s/%s cannot start server: %s\n", d.spec.name.c_str(),
                    backend.c_str(), error.c_str());
        ++mismatches;
        continue;
      }
      std::printf("[build] %-10s %.2fs, serving on 127.0.0.1:%u\n",
                  backend.c_str(), build.Seconds(), tcp.Port());
      std::fflush(stdout);

      for (const Series& s : series) {
        // "OK d <dist>" skips 2 tokens, "OK b <n> ..." 3, "OK m <ns> <nt>" 4.
        const std::size_t skip = s.name == "point"   ? 2
                                 : s.name == "batch" ? 3
                                                     : 4;
        if (!cold) {
          // Untimed warming pass: fills the cache so both timed protocols
          // measure the same hit-steady-state serve path.
          double warm_seconds = 0;
          Dist warm_checksum = 0;
          if (!RunV1Once(tcp.Port(), s, skip, &warm_seconds,
                         &warm_checksum)) {
            std::printf("!! %s/%s/%s warming pass failed\n",
                        d.spec.name.c_str(), backend.c_str(), s.name.c_str());
            ++mismatches;
            continue;
          }
        }
        const RunResult v1 = RunSeries(reps, [&](double* sec, Dist* sum) {
          return RunV1Once(tcp.Port(), s, skip, sec, sum);
        });
        const RunResult v2 = RunSeries(reps, [&](double* sec, Dist* sum) {
          return RunV2Once(tcp.Port(), s, sec, sum);
        });
        if (!v1.ok || !v2.ok || v1.checksum != v2.checksum) {
          std::printf("!! %s/%s/%s checksum mismatch: v1 %s%llu, v2 %s%llu\n",
                      d.spec.name.c_str(), backend.c_str(), s.name.c_str(),
                      v1.ok ? "" : "(failed) ",
                      static_cast<unsigned long long>(v1.checksum),
                      v2.ok ? "" : "(failed) ",
                      static_cast<unsigned long long>(v2.checksum));
          ++mismatches;
          continue;
        }
        const double v1_qps =
            v1.best_seconds > 0 ? s.queries / v1.best_seconds : 0;
        const double v2_qps =
            v2.best_seconds > 0 ? s.queries / v2.best_seconds : 0;
        const double speedup = v1_qps > 0 ? v2_qps / v1_qps : 0;
        const double v1_us = v1.best_seconds / s.queries * 1e6;
        const double v2_us = v2.best_seconds / s.queries * 1e6;
        table.AddRow({d.spec.name, backend, s.name,
                      std::to_string(s.queries), Fmt("%.0f", v1_qps),
                      Fmt("%.0f", v2_qps), Fmt("%.2fx", speedup),
                      Fmt("%.2f", v1_us), Fmt("%.2f", v2_us),
                      std::to_string(v1.checksum)});
        const std::string base =
            d.spec.name + "/" + backend + "/" + s.name + "/";
        json.AddSeries(base + "v1", v1_qps, v1_us, v1_us, v1.checksum);
        json.AddSeries(base + "v2", v2_qps, v2_us, v2_us, v2.checksum,
                       {{"speedup_vs_v1", speedup}});
      }
      tcp.Stop();
    }
    table.Print();
  }

  if (mismatches > 0) {
    std::printf("\n!! %zu series failed cross-protocol verification\n",
                mismatches);
    return 1;
  }
  if (!json.WriteToEnvPath()) return 1;
  return 0;
}
