#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

const char* ClsName(Cls cls) {
  switch (cls) {
    case Cls::kDist:
      return "dist";
    case Cls::kPath:
      return "path";
    case Cls::kBatch:
      return "batch";
    case Cls::kMatrix:
      return "matrix";
  }
  return "?";
}

namespace {

std::vector<WorkloadSpec> AllWorkloads() {
  WorkloadSpec hot;
  hot.kind = WorkloadKind::kHotPoint;
  hot.name = "hot_point";
  hot.backends = {"hl"};
  // 10k/s per connection: at 20k/s the single server I/O thread had too
  // little headroom, and host CPU steal turned into queueing collapse.
  hot.point_v2 = {false, true};
  hot.point_rate = 10000;
  hot.path_share = 0.1;
  hot.bulk_rate = 600;
  hot.matrix_side = 32;  // 1024 cells: within matrix_cache_max_cells
  hot.setup_repeats = 3;

  WorkloadSpec cold;
  cold.kind = WorkloadKind::kColdMixed;
  cold.name = "cold_mixed";
  cold.backends = {"ah", "hl"};
  // @ah points over two connections: a connection may hold 64 requests in
  // flight (the per-client admission cap), so at 2k/s each covers a 32 ms
  // stall behind bulk jobs or the host before the generator holds requests
  // back. At 1k/s the p50s rose ~25%: an idler server wakes up slower.
  cold.point_v2 = {true, true};
  cold.point_rate = 2000;
  cold.path_share = 0.2;
  // Bulk in open loop, ~7% of the engine: a closed loop kept both engine
  // threads busy, and the point p50s then swung 1.6x as far as the host's
  // speed did (ten seeds spread 0.17). 240/s leaves each of b and m >= 10
  // samples beyond p99 when only 3 of the 7 open-loop windows of a 30 s run
  // are measured.
  cold.bulk_rate = 240;
  cold.matrix_side = 100;  // 10,000 cells: bypasses the result cache

  WorkloadSpec churn;
  churn.kind = WorkloadKind::kChurn;
  churn.name = "churn";
  churn.backends = {"hl", "ah"};
  // 10k/s: the post-swap miss burst sends every request to the engine,
  // and the connection's 64 in-flight slots must cover a 6 ms stall.
  churn.point_v2 = {true};
  churn.point_rate = 10000;
  churn.path_share = 0.1;
  churn.bulk_rate = 600;
  churn.matrix_side = 32;
  return {hot, cold, churn};
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) {
      *out = spec;
      return true;
    }
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : AllWorkloads()) names.push_back(spec.name);
  return names;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::Sample(ah::Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

double Zipf::Probability(std::size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

PairPermutation::PairPermutation(std::size_t num_nodes, std::uint64_t seed)
    : n_(num_nodes) {
  if (n_ == 0 || n_ * n_ >= (std::uint64_t{1} << 32)) {
    throw std::invalid_argument("PairPermutation needs 0 < n*n < 2^32");
  }
  ah::Rng rng(seed);
  k0_ = static_cast<std::uint32_t>(rng.Next());
  k1_ = static_cast<std::uint32_t>(rng.Next());
}

// Every step is invertible on 32-bit words (xor-shift, odd multiply, add),
// so Mix is a permutation of [0, 2^32).
std::uint32_t PairPermutation::Mix(std::uint32_t x) const {
  x ^= k0_;
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x += k1_;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

Pair PairPermutation::At(std::uint64_t slot) const {
  // Cycle walking restricts the permutation of [0, 2^32) to [0, n*n).
  std::uint32_t y = Mix(static_cast<std::uint32_t>(slot));
  while (y >= n_ * n_) y = Mix(y);
  return {static_cast<NodeId>(y / n_), static_cast<NodeId>(y % n_)};
}

Inputs::Inputs(const WorkloadSpec& spec, std::size_t num_nodes,
               std::uint64_t seed)
    : spec_(spec),
      num_nodes_(num_nodes),
      seed_(seed),
      zipf_(kGridSide * kGridSide, kZipfExponent),
      perm_(num_nodes, SubSeed(0xfe, 0)) {
  // Grid: side distinct sources and side distinct targets.
  ah::Rng rng(SubSeed(0x9d, 0));
  grid_.side = kGridSide;
  const auto draw_distinct = [&](std::vector<NodeId>* out) {
    std::vector<char> used(num_nodes, 0);
    while (out->size() < kGridSide) {
      const auto v = static_cast<NodeId>(rng.Uniform(num_nodes));
      if (used[v] == 0) {
        used[v] = 1;
        out->push_back(v);
      }
    }
  };
  draw_distinct(&grid_.sources);
  draw_distinct(&grid_.targets);
  // Popularity: a seeded shuffle assigns Zipf ranks to pool pairs.
  rank_to_pool_.resize(kGridSide * kGridSide);
  for (std::size_t i = 0; i < rank_to_pool_.size(); ++i) {
    rank_to_pool_[i] = static_cast<std::int32_t>(i);
  }
  for (std::size_t i = rank_to_pool_.size() - 1; i > 0; --i) {
    std::swap(rank_to_pool_[i], rank_to_pool_[rng.Uniform(i + 1)]);
  }
}

std::uint64_t Inputs::SubSeed(std::uint64_t a, std::uint64_t b) const {
  ah::Rng rng(seed_ ^ (a * 0x9e3779b97f4a7c15ULL) ^
              (b * 0xc2b2ae3d27d4eb4fULL));
  rng.Next();
  return rng.Next();
}

std::uint64_t Inputs::DeltaSeed() const { return SubSeed(0xde17a, 0); }

PointReq Inputs::Point(std::uint32_t stream, std::uint64_t i) const {
  PointReq req;
  if (stream == kStreamGridWalk && pooled()) {
    const std::size_t n = grid_.side * grid_.side;
    req.pool = static_cast<std::int32_t>(i % n);
    req.cls = (i / n) % 2 == 0 ? Cls::kDist : Cls::kPath;
    const Pair p = grid_.At(static_cast<std::size_t>(req.pool));
    req.s = p.first;
    req.t = p.second;
    return req;
  }
  ah::Rng rng(SubSeed(stream, i));
  req.cls = rng.Chance(spec_.path_share) ? Cls::kPath : Cls::kDist;
  if (pooled()) {
    req.pool = rank_to_pool_[zipf_.Sample(rng)];
    const Pair p = grid_.At(static_cast<std::size_t>(req.pool));
    req.s = p.first;
    req.t = p.second;
    // churn: every 4th request goes to the second backend (ah).
    if (spec_.kind == WorkloadKind::kChurn && i % 4 == 3) req.backend = 1;
  } else {
    // Fresh slots: stream k owns slots [k * 2^26, (k + 1) * 2^26).
    const Pair p = perm_.At((std::uint64_t{stream} << 26) + i);
    req.s = p.first;
    req.t = p.second;
  }
  return req;
}

BulkReq Inputs::Bulk(std::uint32_t stream, std::uint64_t j) const {
  ah::Rng rng(SubSeed(0xb000 + stream, j));
  BulkReq req;
  req.cls = j % 2 == 0 ? Cls::kBatch : Cls::kMatrix;
  const auto hl = std::find(spec_.backends.begin(), spec_.backends.end(), "hl");
  req.backend = static_cast<std::uint8_t>(hl - spec_.backends.begin());
  if (req.cls == Cls::kBatch) {
    req.pairs.reserve(kBatchPairs);
    for (std::size_t k = 0; k < kBatchPairs; ++k) {
      if (pooled()) {
        const std::int32_t p = rank_to_pool_[zipf_.Sample(rng)];
        req.pairs.push_back(grid_.At(static_cast<std::size_t>(p)));
        req.pair_pool.push_back(p);
      } else {
        // Bulk slots sit above the point streams' slot ranges.
        req.pairs.push_back(perm_.At((std::uint64_t{16 + stream} << 26) +
                                     j * kBatchPairs + k));
      }
    }
    return req;
  }
  const std::size_t side = spec_.matrix_side;
  if (pooled()) {
    // A side x side sub-grid: every cell is a pool pair.
    const auto pick = [&](const std::vector<NodeId>& from,
                          std::vector<NodeId>* nodes,
                          std::vector<std::int32_t>* idx) {
      std::vector<std::int32_t> order(from.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<std::int32_t>(i);
      }
      for (std::size_t i = 0; i < side; ++i) {
        std::swap(order[i], order[i + rng.Uniform(order.size() - i)]);
        idx->push_back(order[i]);
        nodes->push_back(from[static_cast<std::size_t>(order[i])]);
      }
    };
    pick(grid_.sources, &req.sources, &req.source_idx);
    pick(grid_.targets, &req.targets, &req.target_idx);
  } else {
    for (std::size_t i = 0; i < side; ++i) {
      req.sources.push_back(static_cast<NodeId>(rng.Uniform(num_nodes_)));
    }
    for (std::size_t i = 0; i < side; ++i) {
      req.targets.push_back(static_cast<NodeId>(rng.Uniform(num_nodes_)));
    }
  }
  return req;
}

std::uint64_t Inputs::PointStreamHash(std::uint32_t stream,
                                      std::uint64_t count) const {
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t i = 0; i < count; ++i) {
    const PointReq r = Point(stream, i);
    h = FnvMix(h, (std::uint64_t{r.s} << 32) | r.t);
    h = FnvMix(h, (static_cast<std::uint64_t>(r.cls) << 8) | r.backend);
  }
  return h;
}

std::uint64_t Inputs::BulkStreamHash(std::uint32_t stream,
                                     std::uint64_t count) const {
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t j = 0; j < count; ++j) {
    const BulkReq r = Bulk(stream, j);
    h = FnvMix(h, static_cast<std::uint64_t>(r.cls));
    for (const Pair& p : r.pairs) {
      h = FnvMix(h, (std::uint64_t{p.first} << 32) | p.second);
    }
    for (const NodeId v : r.sources) h = FnvMix(h, v);
    for (const NodeId v : r.targets) h = FnvMix(h, v);
  }
  return h;
}

std::uint64_t HashDists(const Dist* values, std::size_t count) {
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < count; ++i) h = FnvMix(h, values[i]);
  return h;
}

}  // namespace perfbench
