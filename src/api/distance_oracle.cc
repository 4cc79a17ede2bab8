#include "api/distance_oracle.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "alt/alt_index.h"
#include "ch/ch_index.h"
#include "core/ah_query.h"
#include "fc/fc_index.h"
#include "hier/many_to_many.h"
#include "hl/hl_index.h"
#include "routing/bidirectional.h"
#include "routing/dijkstra.h"
#include "silc/silc_index.h"
#include "util/parallel.h"

namespace ah {

namespace {

/// Shared matrix path for oracles built on an upward SearchGraph (ch/ah):
/// the bucket technique, O(|S|+|T|) upward searches total.
std::vector<Dist> BucketMatrix(const SearchGraph& sg,
                               std::span<const NodeId> sources,
                               std::span<const NodeId> targets,
                               std::size_t num_threads) {
  ManyToMany engine(sg, {targets.begin(), targets.end()}, num_threads);
  return engine.DistancesFrom(sources, num_threads);
}

// Each oracle below owns only the immutable index; all mutable search state
// (heaps, timestamped labels, parent arrays) lives in the session types, so
// NewSession() const hands out independent per-thread query engines over the
// one shared index.

class DijkstraSession final : public QuerySession {
 public:
  explicit DijkstraSession(const Graph& g) : engine_(g) {}

  Dist Distance(NodeId s, NodeId t) override { return engine_.Distance(s, t); }

  PathResult ShortestPath(NodeId s, NodeId t) override {
    PathResult result;
    result.nodes = engine_.Path(s, t);
    if (!result.nodes.empty()) result.length = engine_.DistTo(t);
    return result;
  }

 private:
  Dijkstra engine_;
};

class DijkstraOracle final : public DistanceOracle {
 public:
  explicit DijkstraOracle(const Graph& g) : DistanceOracle(g) {}

  std::string_view Name() const override { return "dijkstra"; }
  std::unique_ptr<QuerySession> NewSession() const override {
    return std::make_unique<DijkstraSession>(graph());
  }

  /// One full one-to-all search per source row beats |T| early-stopping
  /// point queries for any non-trivial target set — and this is the oracle
  /// the conformance matrix sweep cross-checks everything against.
  std::vector<Dist> DistanceMatrix(std::span<const NodeId> sources,
                                   std::span<const NodeId> targets,
                                   std::size_t num_threads) const override {
    const std::size_t num_targets = targets.size();
    std::vector<Dist> result(sources.size() * num_targets, kInfDist);
    if (result.empty()) return result;
    if (num_threads == 0) num_threads = WorkerThreads();
    std::vector<std::unique_ptr<Dijkstra>> engines(num_threads);
    ParallelChunks(
        sources.size(),
        std::max<std::size_t>(1, sources.size() / (num_threads * 4)),
        [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end,
            std::size_t tid) {
          if (!engines[tid]) engines[tid] = std::make_unique<Dijkstra>(graph());
          for (std::size_t i = begin; i < end; ++i) {
            engines[tid]->Run(sources[i]);
            for (std::size_t j = 0; j < num_targets; ++j) {
              result[i * num_targets + j] = engines[tid]->DistTo(targets[j]);
            }
          }
        },
        num_threads);
    return result;
  }
};

class BidirectionalSession final : public QuerySession {
 public:
  explicit BidirectionalSession(const Graph& g) : engine_(g) {}

  Dist Distance(NodeId s, NodeId t) override { return engine_.Distance(s, t); }

  PathResult ShortestPath(NodeId s, NodeId t) override {
    PathResult result;
    result.nodes = engine_.Path(s, t);
    if (!result.nodes.empty()) result.length = engine_.LastDistance();
    return result;
  }

 private:
  BidirectionalDijkstra engine_;
};

class BidirectionalOracle final : public DistanceOracle {
 public:
  explicit BidirectionalOracle(const Graph& g) : DistanceOracle(g) {}

  std::string_view Name() const override { return "bidijkstra"; }
  std::unique_ptr<QuerySession> NewSession() const override {
    return std::make_unique<BidirectionalSession>(graph());
  }
};

class ChSession final : public QuerySession {
 public:
  explicit ChSession(const ChIndex& index) : query_(index) {}

  Dist Distance(NodeId s, NodeId t) override { return query_.Distance(s, t); }
  PathResult ShortestPath(NodeId s, NodeId t) override {
    return query_.Path(s, t);
  }

 private:
  ChQuery query_;
};

class ChOracle final : public DistanceOracle {
 public:
  explicit ChOracle(const Graph& g)
      : DistanceOracle(g), index_(ChIndex::Build(g)) {
    build_stats_.seconds = index_.build_stats().seconds;
    build_stats_.index_bytes = index_.SizeBytes();
  }

  /// Adopts a prebuilt index (the frozen-order rebuild path).
  ChOracle(const Graph& g, ChIndex index)
      : DistanceOracle(g), index_(std::move(index)) {
    build_stats_.seconds = index_.build_stats().seconds;
    build_stats_.index_bytes = index_.SizeBytes();
  }

  std::string_view Name() const override { return "ch"; }
  std::unique_ptr<QuerySession> NewSession() const override {
    return std::make_unique<ChSession>(index_);
  }

  std::vector<Dist> DistanceMatrix(std::span<const NodeId> sources,
                                   std::span<const NodeId> targets,
                                   std::size_t num_threads) const override {
    return BucketMatrix(index_.search_graph(), sources, targets, num_threads);
  }
  const SearchGraph* UpwardSearchGraph() const override {
    return &index_.search_graph();
  }

  std::unique_ptr<DistanceOracle> RebuildWithFrozenOrder(
      const Graph& g) const override {
    return std::make_unique<ChOracle>(
        g, ChIndex::RebuildWithFrozenOrder(g, index_));
  }

 private:
  ChIndex index_;
};

class AltSession final : public QuerySession {
 public:
  AltSession(const Graph& g, const AltIndex& index) : query_(g, index) {}

  Dist Distance(NodeId s, NodeId t) override { return query_.Distance(s, t); }
  PathResult ShortestPath(NodeId s, NodeId t) override {
    return query_.Path(s, t);
  }

 private:
  AltQuery query_;
};

class AltOracle final : public DistanceOracle {
 public:
  AltOracle(const Graph& g, const OracleOptions& options)
      : DistanceOracle(g),
        index_(AltIndex::Build(
            g, AltParams{options.alt_landmarks, options.seed})) {
    build_stats_.seconds = index_.build_seconds();
    build_stats_.index_bytes = index_.SizeBytes();
  }

  std::string_view Name() const override { return "alt"; }
  std::unique_ptr<QuerySession> NewSession() const override {
    return std::make_unique<AltSession>(graph(), index_);
  }

 private:
  AltIndex index_;
};

// SILC queries are pure reads of the quadtree tables (no search scratch at
// all), so the session is a stateless forwarder.
class SilcSession final : public QuerySession {
 public:
  explicit SilcSession(const SilcIndex& index) : index_(index) {}

  Dist Distance(NodeId s, NodeId t) override { return index_.Distance(s, t); }
  PathResult ShortestPath(NodeId s, NodeId t) override {
    return index_.Path(s, t);
  }

 private:
  const SilcIndex& index_;
};

class SilcOracle final : public DistanceOracle {
 public:
  explicit SilcOracle(const Graph& g)
      : DistanceOracle(g), index_(SilcIndex::Build(g)) {
    build_stats_.seconds = index_.build_stats().seconds;
    build_stats_.index_bytes = index_.SizeBytes();
  }

  std::string_view Name() const override { return "silc"; }
  std::unique_ptr<QuerySession> NewSession() const override {
    return std::make_unique<SilcSession>(index_);
  }

 private:
  SilcIndex index_;
};

class FcSession final : public QuerySession {
 public:
  FcSession(const FcIndex& index, bool use_proximity)
      : query_(index, FcQueryOptions{use_proximity}) {
    if (use_proximity) {
      path_query_.emplace(index, FcQueryOptions{/*use_proximity=*/false});
    }
  }

  Dist Distance(NodeId s, NodeId t) override { return query_.Distance(s, t); }

  /// Native path recovery: FC shortcuts carry midpoints, so paths come from
  /// meet-point stitching + O(k) shortcut expansion — no distance probes.
  /// Paths always go through the level-constraint-only query, which is
  /// exact on any graph — ShortestPath keeps the Found()-iff-reachable
  /// contract even when Distance() runs with the proximity heuristic.
  PathResult ShortestPath(NodeId s, NodeId t) override {
    FcQuery& engine = path_query_ ? *path_query_ : query_;
    return engine.Path(s, t);
  }

 private:
  FcQuery query_;
  // Exact (level-constraint-only) path engine; only materialized when
  // query_ runs with the proximity heuristic.
  std::optional<FcQuery> path_query_;
};

class FcOracle final : public DistanceOracle {
 public:
  FcOracle(const Graph& g, const OracleOptions& options)
      : DistanceOracle(g),
        index_(FcIndex::Build(g, MakeParams(options))),
        use_proximity_(options.fc_proximity) {
    build_stats_.seconds = index_.build_stats().seconds;
    build_stats_.index_bytes = index_.SizeBytes();
  }

  std::string_view Name() const override { return "fc"; }
  std::unique_ptr<QuerySession> NewSession() const override {
    return std::make_unique<FcSession>(index_, use_proximity_);
  }

 private:
  static FcParams MakeParams(const OracleOptions& options) {
    FcParams params;
    params.seed = options.seed;
    return params;
  }

  FcIndex index_;
  bool use_proximity_;
};

class AhSession final : public QuerySession {
 public:
  AhSession(const AhIndex& index, const AhQueryOptions& options)
      : query_(index, options) {}

  Dist Distance(NodeId s, NodeId t) override { return query_.Distance(s, t); }
  PathResult ShortestPath(NodeId s, NodeId t) override {
    return query_.Path(s, t);
  }

 private:
  AhQuery query_;
};

class AhOracle final : public DistanceOracle {
 public:
  AhOracle(const Graph& g, const OracleOptions& options)
      : DistanceOracle(g),
        index_(AhIndex::Build(g, MakeParams(options))),
        query_options_{options.ah_pruned ? AhQueryMode::kPruned
                                         : AhQueryMode::kExact,
                       /*use_proximity=*/true,
                       /*max_seed_walk=*/256} {
    build_stats_.seconds = index_.build_stats().total_seconds;
    build_stats_.index_bytes = index_.SizeBytes();
  }

  /// Adopts a prebuilt index (the frozen-order rebuild path); the query
  /// mode carries over from the oracle the rebuild started from.
  AhOracle(const Graph& g, AhIndex index, const AhQueryOptions& query_options)
      : DistanceOracle(g),
        index_(std::move(index)),
        query_options_(query_options) {
    build_stats_.seconds = index_.build_stats().total_seconds;
    build_stats_.index_bytes = index_.SizeBytes();
  }

  std::string_view Name() const override { return "ah"; }
  std::unique_ptr<QuerySession> NewSession() const override {
    return std::make_unique<AhSession>(index_, query_options_);
  }

  /// The bucket matrix runs on the rank-ordered upward graph and is exact on
  /// any input, independent of the pruned point-query mode.
  std::vector<Dist> DistanceMatrix(std::span<const NodeId> sources,
                                   std::span<const NodeId> targets,
                                   std::size_t num_threads) const override {
    return BucketMatrix(index_.search_graph(), sources, targets, num_threads);
  }
  const SearchGraph* UpwardSearchGraph() const override {
    return &index_.search_graph();
  }

  std::unique_ptr<DistanceOracle> RebuildWithFrozenOrder(
      const Graph& g) const override {
    return std::make_unique<AhOracle>(
        g, AhIndex::RebuildWithFrozenOrder(g, index_), query_options_);
  }

 private:
  static AhParams MakeParams(const OracleOptions& options) {
    AhParams params;
    params.seed = options.seed;
    // The exact mode never reads gateway lists; skip the costliest build
    // phase when the pruned mode is off.
    params.build_gateways = options.ah_pruned;
    return params;
  }

  AhIndex index_;
  AhQueryOptions query_options_;
};

// Hub-label queries are pure reads of the sorted label arrays (the merge
// join and the parent-chain walks carry no search scratch), so the session
// is a stateless forwarder like SILC's.
class HlSession final : public QuerySession {
 public:
  explicit HlSession(const HlIndex& index) : index_(index) {}

  Dist Distance(NodeId s, NodeId t) override { return index_.Distance(s, t); }
  PathResult ShortestPath(NodeId s, NodeId t) override {
    return index_.Path(s, t);
  }

 private:
  const HlIndex& index_;
};

class HlOracle final : public DistanceOracle {
 public:
  explicit HlOracle(const Graph& g)
      : DistanceOracle(g), index_(HlIndex::Build(g)) {
    build_stats_.seconds = index_.build_stats().seconds;
    build_stats_.index_bytes = index_.SizeBytes();
  }

  /// Adopts a prebuilt index (the frozen-order rebuild path).
  HlOracle(const Graph& g, HlIndex index)
      : DistanceOracle(g), index_(std::move(index)) {
    build_stats_.seconds = index_.build_stats().seconds;
    build_stats_.index_bytes = index_.SizeBytes();
  }

  std::unique_ptr<DistanceOracle> RebuildWithFrozenOrder(
      const Graph& g) const override {
    return std::make_unique<HlOracle>(
        g, HlIndex::RebuildWithFrozenOrder(g, index_));
  }

  std::string_view Name() const override { return "hl"; }
  std::unique_ptr<QuerySession> NewSession() const override {
    return std::make_unique<HlSession>(index_);
  }

  /// Label analogue of the bucket technique (batched PLL): index the
  /// targets' in-labels by hub rank once, then each source joins its
  /// out-labels against those hub buckets — |S|+|T| label scans instead of
  /// |S|·|T| merge joins.
  std::vector<Dist> DistanceMatrix(std::span<const NodeId> sources,
                                   std::span<const NodeId> targets,
                                   std::size_t num_threads) const override {
    const std::size_t num_targets = targets.size();
    std::vector<Dist> result(sources.size() * num_targets, kInfDist);
    if (result.empty()) return result;
    if (num_threads == 0) num_threads = WorkerThreads();

    // CSR buckets over hub ranks: entry (j, d) at rank r means
    // d(hub_of_rank(r) → targets[j]) = d. Filled in target order, so the
    // layout is a pure function of the label arrays.
    struct HubEntry {
      std::uint32_t target_index;
      Dist dist;
    };
    const std::size_t n = index_.NumNodes();
    const HlLabelTable& in = index_.in_table();
    const HlLabelTable& out = index_.out_table();
    std::vector<std::uint64_t> first(n + 1, 0);
    for (NodeId t : targets) {
      for (const HlEntry& label : in.Of(t)) ++first[label.hub + 1];
    }
    for (std::size_t r = 0; r < n; ++r) first[r + 1] += first[r];
    std::vector<HubEntry> entries(first[n]);
    std::vector<std::uint64_t> cursor(first.begin(), first.end() - 1);
    for (std::uint32_t j = 0; j < num_targets; ++j) {
      const NodeId t = targets[j];
      for (std::uint64_t pos = in.first[t]; pos < in.first[t + 1]; ++pos) {
        entries[cursor[in.hot[pos].hub]++] = {j, in.DistAt(pos)};
      }
    }

    ParallelChunks(
        sources.size(),
        std::max<std::size_t>(1, sources.size() / (num_threads * 4)),
        [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end,
            std::size_t /*tid*/) {
          for (std::size_t i = begin; i < end; ++i) {
            const std::span<Dist> row{result.data() + i * num_targets,
                                      num_targets};
            const NodeId s = sources[i];
            for (std::uint64_t pos = out.first[s]; pos < out.first[s + 1];
                 ++pos) {
              const Rank hub = out.hot[pos].hub;
              const Dist dist = out.DistAt(pos);
              for (std::uint64_t e = first[hub]; e < first[hub + 1]; ++e) {
                const Dist via = dist + entries[e].dist;
                if (via < row[entries[e].target_index]) {
                  row[entries[e].target_index] = via;
                }
              }
            }
          }
        },
        num_threads);
    return result;
  }

 private:
  HlIndex index_;
};

}  // namespace

std::vector<Dist> DistanceOracle::DistanceMatrix(
    std::span<const NodeId> sources, std::span<const NodeId> targets,
    std::size_t num_threads) const {
  // Base case: pairwise point queries through per-thread sessions. Correct
  // for every backend; each source owns its result row, so output is
  // deterministic at any thread count. Hierarchy/label backends override
  // this with sub-quadratic joins.
  const std::size_t num_targets = targets.size();
  std::vector<Dist> result(sources.size() * num_targets, kInfDist);
  if (result.empty()) return result;
  if (num_threads == 0) num_threads = WorkerThreads();
  std::vector<std::unique_ptr<QuerySession>> sessions(num_threads);
  ParallelChunks(
      sources.size(),
      std::max<std::size_t>(1, sources.size() / (num_threads * 4)),
      [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end,
          std::size_t tid) {
        if (!sessions[tid]) sessions[tid] = NewSession();
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = 0; j < num_targets; ++j) {
            result[i * num_targets + j] =
                sessions[tid]->Distance(sources[i], targets[j]);
          }
        }
      },
      num_threads);
  return result;
}

const std::vector<std::string>& OracleNames() {
  static const std::vector<std::string> kNames = {
      "dijkstra", "bidijkstra", "ch", "alt", "silc", "fc", "ah", "hl"};
  return kNames;
}

std::unique_ptr<DistanceOracle> MakeOracle(std::string_view name,
                                           const Graph& g,
                                           const OracleOptions& options) {
  if (name == "dijkstra") return std::make_unique<DijkstraOracle>(g);
  if (name == "bidijkstra") return std::make_unique<BidirectionalOracle>(g);
  if (name == "ch") return std::make_unique<ChOracle>(g);
  if (name == "alt") return std::make_unique<AltOracle>(g, options);
  if (name == "silc") return std::make_unique<SilcOracle>(g);
  if (name == "fc") return std::make_unique<FcOracle>(g, options);
  if (name == "ah") return std::make_unique<AhOracle>(g, options);
  if (name == "hl") return std::make_unique<HlOracle>(g);
  throw std::invalid_argument("MakeOracle: unknown backend '" +
                              std::string(name) + "'");
}

}  // namespace ah
