// AH query processing (§4.3).
//
// Two modes:
//  * kExact   — pure rank-constrained bidirectional upward search. Correct on
//               any graph by the standard hierarchy argument (the witness-
//               search contraction guarantees shortest up-down paths).
//  * kPruned  — the paper's full query: rank constraint + proximity
//               constraint + elevating jumps via gateway lists. Exact under
//               the arterial-dimension assumption (road-like inputs); this is
//               the configuration every benchmark uses, validated against
//               Dijkstra by the test suite.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/ah_index.h"
#include "hier/upward_query.h"
#include "routing/path.h"

namespace ah {

enum class AhQueryMode { kExact, kPruned };

struct AhQueryOptions {
  AhQueryMode mode = AhQueryMode::kPruned;
  /// Apply the proximity constraint (ignored in kExact mode). kPruned
  /// always starts its searches from gateway seeds.
  bool use_proximity = true;
  /// Safety cap on the gateway pre-walk.
  std::size_t max_seed_walk = 256;
};

class AhQuery {
 public:
  explicit AhQuery(const AhIndex& index, AhQueryOptions options = {});

  /// Distance from s to t; kInfDist if disconnected.
  Dist Distance(NodeId s, NodeId t);

  /// Shortest path (original-graph node sequence) from s to t.
  PathResult Path(NodeId s, NodeId t);

  const QueryStats& LastStats() const { return search_.Stats(); }

 private:
  struct SeedWalkRecord {
    NodeId prev = kInvalidNode;  ///< Previous hop node (kInvalidNode at s/t).
    Level jump_level = 0;        ///< Gateway level used for prev → node.
  };

  // Runs the configured search; returns the distance and leaves the engine
  // state (meet, parents) in place for path extraction. Gateway-walk hop
  // records are only collected when a path query needs them.
  Dist RunSearch(NodeId s, NodeId t, bool collect_records);

  // Gateway pre-walk from an endpoint toward level >= j. Fills `seeds` and,
  // if record != nullptr, the hop chain per reached node.
  void BuildSeeds(NodeId endpoint, Level j, bool forward,
                  std::vector<SearchSeed>* seeds,
                  std::vector<std::pair<NodeId, SeedWalkRecord>>* record);

  // Expands the gateway hop chain endpoint→seed (forward) or seed→endpoint
  // (backward) into original-graph nodes.
  std::vector<NodeId> ExpandSeedChain(
      NodeId endpoint, NodeId seed, bool forward,
      const std::vector<std::pair<NodeId, SeedWalkRecord>>& record);

  const AhIndex& index_;
  AhQueryOptions options_;
  BidirUpwardSearch search_;
  GatewaySearch gateway_search_;

  // Per-query cached state (reused across queries; no per-query allocation
  // after warm-up).
  NodeId cur_s_ = kInvalidNode;
  NodeId cur_t_ = kInvalidNode;
  Level jump_level_ = 0;
  std::vector<Cell> s_cells_;  // Cell of s in R_1..R_h (1-based offset).
  std::vector<Cell> t_cells_;
  std::vector<SearchSeed> fwd_seeds_;
  std::vector<SearchSeed> bwd_seeds_;
  std::vector<std::pair<NodeId, SeedWalkRecord>> fwd_record_;
  std::vector<std::pair<NodeId, SeedWalkRecord>> bwd_record_;

  // Gateway-walk scratch (BuildSeeds): timestamped arrays sized n — no
  // hashing or allocation on the query path.
  struct WalkHeapEntry {
    Dist dist;
    NodeId node;
  };
  std::vector<Dist> walk_dist_;
  std::vector<SeedWalkRecord> walk_via_;
  std::vector<std::uint32_t> walk_stamp_;
  std::vector<NodeId> walk_touched_;
  std::uint32_t walk_round_ = 0;
  std::vector<WalkHeapEntry> walk_heap_;
};

}  // namespace ah
