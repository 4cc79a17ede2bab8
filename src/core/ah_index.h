// The Arterial Hierarchy index (§4).
//
// Build pipeline:
//   1. GridHierarchy over the node coordinates (R_1..R_h).
//   2. Incremental level assignment on shrinking overlays (level_assigner).
//   3. §4.4 vertex-cover ordering + downgrading (ordering).
//   4. Witness-search contraction in ascending AH rank — every shortcut
//      carries its midpoint, giving the two-hop expansion of §4.1.
//   5. Elevating-edge ("gateway") lists: for each node u and each level j in
//      a band above u's level, the nodes of level ≥ j reachable by upward
//      chains through sub-level-j nodes inside the 5×5-cell region of R_j
//      around u, with exact distances. Queries jump straight onto them.
//
// Queries live in core/ah_query.h.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "core/level_assigner.h"
#include "core/ordering.h"
#include "graph/graph.h"
#include "hgrid/grid_hierarchy.h"
#include "hier/search_graph.h"
#include "hier/witness_certs.h"
#include "util/indexed_heap.h"
#include "util/types.h"

namespace ah {

struct AhParams {
  ContractionParams contraction;
  LevelAssignParams levels;
  OrderingParams ordering;

  /// Grid depth cap passed to GridHierarchy.
  std::int32_t max_grid_depth = 18;

  /// Build elevating-edge (gateway) lists.
  bool build_gateways = true;
  /// Gateway lists exist for levels j in (level(u), level(u)+band]. The
  /// default spans the whole practical hierarchy height, so most jumps are
  /// a single hop.
  Level gateway_band = 8;
  /// Chebyshev cell radius of the gateway search region in R_j
  /// (2 = the paper's 5×5-cell region).
  std::int32_t gateway_region_radius = 2;
  /// Safety cap on nodes settled per gateway search.
  std::size_t gateway_settle_limit = 4096;
  /// Lists longer than this are not stored (queries then expand the node
  /// normally, which is always correct). At fine grid levels the 5×5 region
  /// is smaller than a road segment and the "list" degenerates into the
  /// node's plain neighbourhood — storing it wastes space and helps nothing.
  std::size_t gateway_max_entries = 64;

  std::uint64_t seed = 42;
};

struct AhBuildStats {
  double total_seconds = 0;
  double level_seconds = 0;
  double order_seconds = 0;
  double contract_seconds = 0;
  double gateway_seconds = 0;
  std::size_t shortcuts = 0;
  std::size_t gateway_entries = 0;
  Level grid_depth = 0;
  Level max_level = 0;
  /// nodes_per_level[i] = #nodes whose final level is i.
  std::vector<std::size_t> nodes_per_level;
  /// Per-iteration cost of the level computation, from AssignLevels (index
  /// i-1 = iteration i). Empty after RebuildWithFrozenOrder, which reuses
  /// the levels, and after Load: the index image does not store it.
  std::vector<LevelIterationStats> level_iterations;
};

/// One elevating-edge target: either a node of level ≥ j, or a *boundary*
/// node just outside the gateway search region — in both cases at the exact
/// distance `dist` of a real upward chain from (or to, for backward lists)
/// the owning node, and always of strictly higher rank than the owner.
/// Boundary entries keep the frontier complete when a shortest path's first
/// level-j node lies beyond the 5×5-cell region.
struct Gateway {
  NodeId node = kInvalidNode;
  /// Explicit zero padding: Save writes gateways as raw bytes, so the image
  /// is reproducible only when no byte of the struct is left unset.
  std::uint32_t pad = 0;
  Dist dist = 0;
};
static_assert(sizeof(Gateway) == 16);

class AhIndex {
 public:
  static AhIndex Build(const Graph& g, const AhParams& params = {});

  /// Weights-only rebuild: re-contracts `g` in `previous`'s frozen AH rank,
  /// reusing the level assignment, ordering, grid hierarchy and cell tables
  /// (all weight-independent or frozen by construction) and recomputing only
  /// the weight-dependent artifacts — shortcut weights, witness checks and
  /// gateway lists. Contraction is exact for any total order and the
  /// gateway build is re-run from scratch over the new search graph, so the
  /// result is exactly the pruned/exact oracle for `g` under the frozen
  /// structure. `g` must have `previous`'s node count (weight deltas never
  /// change topology); throws std::invalid_argument otherwise.
  /// Deterministic at any thread count (the gateway build commits in chunk
  /// order, same as Build).
  static AhIndex RebuildWithFrozenOrder(const Graph& g,
                                        const AhIndex& previous);

  std::size_t NumNodes() const { return level_.size(); }
  const SearchGraph& search_graph() const { return search_graph_; }
  const GridHierarchy& grids() const { return grids_; }
  const AhParams& params() const { return params_; }
  const AhBuildStats& build_stats() const { return build_stats_; }

  Level LevelOf(NodeId v) const { return level_[v]; }
  Level MaxLevel() const { return build_stats_.max_level; }
  const Point& Coord(NodeId v) const { return coords_[v]; }

  /// Precomputed cell of node v in grid R_i (1 <= i <= grids().Depth()) —
  /// the hot lookup of the proximity filter and the gateway searches.
  Cell CellAt(Level i, NodeId v) const {
    return cells_by_level_[static_cast<std::size_t>(i - 1) * level_.size() +
                           v];
  }

  /// Clamped separation level for a query pair: the coarsest grid level at
  /// which no 3×3-cell region covers both endpoints, capped at the highest
  /// populated hierarchy level (Lemma 3 drives the elevating jump).
  Level QueryJumpLevel(NodeId s, NodeId t) const;

  /// Forward (resp. backward) gateways of v toward level j. Empty when j is
  /// out of the stored band or no target exists.
  std::span<const Gateway> FwdGateways(NodeId v, Level j) const {
    return GatewaySpan(fwd_gw_first_, fwd_gw_, v, j);
  }
  std::span<const Gateway> BwdGateways(NodeId v, Level j) const {
    return GatewaySpan(bwd_gw_first_, bwd_gw_, v, j);
  }

  /// Total index footprint (search graph + levels + gateways + grid data).
  std::size_t SizeBytes() const;

  /// In-memory witness-certificate table for frozen-order repairs (see
  /// hier/witness_certs.h). Null after Build and Load; each
  /// RebuildWithFrozenOrder emits one, so chained repairs replay the
  /// previous repair's pruning witnesses instead of re-searching them.
  const WitnessCertTable* witness_certs() const {
    return witness_certs_.get();
  }

  /// Binary persistence (magic "AHIX"): build once, serve anywhere. The
  /// grid hierarchy and per-level cell table are recomputed on load (they
  /// are deterministic functions of the stored coordinates and parameters).
  void Save(std::ostream& out) const;
  static AhIndex Load(std::istream& in);

 private:
  friend class GatewaySearch;

  std::span<const Gateway> GatewaySpan(
      const std::vector<std::uint64_t>& first, const std::vector<Gateway>& gw,
      NodeId v, Level j) const {
    if (first.empty()) return {};  // Gateways were not built.
    const Level lv = level_[v];
    if (j <= lv || j > lv + params_.gateway_band || j > MaxLevel()) return {};
    const std::size_t slot =
        static_cast<std::size_t>(v) * params_.gateway_band + (j - lv - 1);
    return {gw.data() + first[slot], gw.data() + first[slot + 1]};
  }

  void BuildGateways();

  AhParams params_;
  GridHierarchy grids_;
  std::vector<Point> coords_;
  std::vector<Level> level_;
  std::vector<Cell> cells_by_level_;  // [(i-1)*n + v] = cell of v in R_i.
  SearchGraph search_graph_;
  AhBuildStats build_stats_;
  std::shared_ptr<const WitnessCertTable> witness_certs_;

  // Flattened gateway lists: slot = v * band + (j - level(v) - 1).
  std::vector<std::uint64_t> fwd_gw_first_;
  std::vector<Gateway> fwd_gw_;
  std::vector<std::uint64_t> bwd_gw_first_;
  std::vector<Gateway> bwd_gw_;
};

/// Bounded upward search used both to build gateway lists and to expand a
/// gateway hop back into a hierarchy-arc chain during path queries.
class GatewaySearch {
 public:
  explicit GatewaySearch(const AhIndex& index);

  /// Finds the gateway frontier of v toward level j: all level-≥j nodes
  /// reached through sub-level-j nodes inside the region bound, plus the
  /// boundary nodes where upward chains exit the region (toward v, when
  /// forward == false). Results are sorted by node id.
  const std::vector<Gateway>& Run(NodeId v, Level j, bool forward);

  /// False if the last Run exhausted its settle budget: the returned
  /// frontier may be incomplete and MUST NOT be stored as a gateway list
  /// (an incomplete frontier silently loses shortest paths).
  bool Complete() const { return complete_; }

  /// After Run: the hierarchy-arc chain v → … → gateway (node ids; forward
  /// orientation even for backward runs is NOT applied — for backward runs
  /// the chain reads gateway → … → v when reversed). Empty if `gateway` was
  /// not reached.
  std::vector<NodeId> ChainFrom(NodeId gateway) const;

 private:
  const AhIndex& index_;
  IndexedHeap heap_;
  std::vector<Dist> dist_;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t round_ = 0;
  std::vector<Gateway> hits_;
  bool complete_ = true;
};

}  // namespace ah
