// Seeded workload inputs: query pools, request streams and weight-delta
// batches. Everything here is a pure function of (graph, workload, seed)
// drawn through ah::Rng (util/rng.h), so the same seed replays the same
// traffic and a different seed gives different traffic of the same shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/weight_update.h"
#include "util/rng.h"
#include "util/types.h"

namespace perfbench {

using ah::Dist;
using ah::NodeId;
using Pair = std::pair<NodeId, NodeId>;

/// Request classes, named by their wire verb.
enum class Cls : std::uint8_t { kDist = 0, kPath = 1, kBatch = 2, kMatrix = 3 };
inline constexpr std::size_t kNumCls = 4;
const char* ClsName(Cls cls);

enum class WorkloadKind { kHotPoint, kColdMixed, kChurn };

/// The fixed design of one workload (see perfbench/README.md).
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kHotPoint;
  std::string name;
  /// Served backends; the first is the server default.
  std::vector<std::string> backends;
  /// Open-loop point connections: protocol (false = v1 text) and rate.
  std::vector<bool> point_v2;
  double point_rate = 0;  ///< Requests/s per point connection.
  double path_share = 0;  ///< Share of point requests that are `p`.
  /// Bulk connection: open loop at bulk_rate requests/s, or closed loop
  /// with one request in flight when bulk_rate == 0.
  double bulk_rate = 0;
  std::size_t matrix_side = 0;
  std::size_t setup_repeats = 2;
};

/// Looks up a workload by name; false if unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* out);
std::vector<std::string> WorkloadNames();

/// Zipf(s) popularity over ranks 0..n-1: P(rank r) is proportional to
/// 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t Sample(ah::Rng& rng) const;
  double Probability(std::size_t rank) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// A seeded bijection from slots [0, n*n) onto (s, t) pairs: distinct slots
/// always give distinct pairs, so a stream drawing fresh slots never
/// repeats a pair. Needs n*n < 2^32.
class PairPermutation {
 public:
  PairPermutation(std::size_t num_nodes, std::uint64_t seed);
  Pair At(std::uint64_t slot) const;

 private:
  std::uint32_t Mix(std::uint32_t x) const;

  std::uint64_t n_;
  std::uint32_t k0_, k1_;
};

/// One point request. `pool` is the index of the pair in the workload's
/// grid pool (-1 for pairs outside it); `backend` indexes
/// WorkloadSpec::backends.
struct PointReq {
  NodeId s = 0;
  NodeId t = 0;
  Cls cls = Cls::kDist;
  std::uint8_t backend = 0;
  std::int32_t pool = -1;
};

/// One bulk request: a `b` over `pairs` or an `m` over sources x targets.
/// Grid-drawn requests also carry pool / grid indices for verification.
struct BulkReq {
  Cls cls = Cls::kBatch;
  std::uint8_t backend = 0;
  std::vector<Pair> pairs;
  std::vector<std::int32_t> pair_pool;
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;
  std::vector<std::int32_t> source_idx;  ///< Into Grid::sources.
  std::vector<std::int32_t> target_idx;  ///< Into Grid::targets.
};

/// The hot pool: every (source, target) of a side x side grid of distinct
/// nodes; pool index p = (p / side, p % side).
struct Grid {
  std::size_t side = 0;
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;
  Pair At(std::size_t p) const {
    return {sources[p / side], targets[p % side]};
  }
};

/// Point stream ids. Distinct streams draw disjoint pair slots.
enum Stream : std::uint32_t {
  kStreamWarm = 0,
  kStreamPoint0 = 1,  ///< Open-loop connection 0 (and the traced replay).
  kStreamPoint1 = 2,
  kStreamSat0 = 3,    ///< Saturation phase, connection 0.
  kStreamSat1 = 4,
  kStreamBulk = 5,
  kStreamBulkWarm = 6,
  kStreamSatBulk = 7,
  /// Pooled workloads only: walks every pool pair once as `d`, then once
  /// as `p`, on the default backend (the cache warm-up).
  kStreamGridWalk = 8,
  kStreamWarm1 = 9,  ///< Warm-up of the second point connection.
};

class Inputs {
 public:
  static constexpr std::size_t kGridSide = 128;
  static constexpr std::size_t kBatchPairs = 1024;
  static constexpr double kZipfExponent = 1.0;

  Inputs(const WorkloadSpec& spec, std::size_t num_nodes, std::uint64_t seed);

  /// Request i of a point stream.
  PointReq Point(std::uint32_t stream, std::uint64_t i) const;
  /// Request j of a bulk stream (`b` on even j, `m` on odd j).
  BulkReq Bulk(std::uint32_t stream, std::uint64_t j) const;

  /// FNV-1a over the first `count` requests of a stream.
  std::uint64_t PointStreamHash(std::uint32_t stream, std::uint64_t count) const;
  std::uint64_t BulkStreamHash(std::uint32_t stream, std::uint64_t count) const;

  /// Whether point requests come from the grid pool (hot/churn) or are
  /// fresh uniform pairs (cold).
  bool pooled() const { return spec_.kind != WorkloadKind::kColdMixed; }
  const Grid& grid() const { return grid_; }
  /// Seed for the TrafficFeed that produces the churn delta batches.
  std::uint64_t DeltaSeed() const;

 private:
  std::uint64_t SubSeed(std::uint64_t a, std::uint64_t b) const;

  WorkloadSpec spec_;
  std::size_t num_nodes_;
  std::uint64_t seed_;
  Grid grid_;
  std::vector<std::int32_t> rank_to_pool_;  // Zipf rank -> pool index
  Zipf zipf_;
  PairPermutation perm_;
};

/// FNV-1a accumulation helpers (answer and stream fingerprints).
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
inline std::uint64_t FnvMix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}
std::uint64_t HashDists(const Dist* values, std::size_t count);

}  // namespace perfbench
