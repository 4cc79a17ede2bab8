// FC — the first-cut index of Section 3.
//
// Node levels come from *exact* per-level arterial-edge computation on the
// original graph (arterial/arterial.h); shortcuts connect every pair (u,v)
// whose shortest path runs only through nodes at levels strictly below both
// endpoints; queries are bidirectional Dijkstra over graph+shortcuts under
// the level constraint and (optionally) the proximity constraint.
//
// Every shortcut carries a midpoint (the predecessor of its head on the path
// the shortcut-construction search certified), and the hierarchy retains a
// parent-chain unpack table, so shortest *paths* are recovered natively by
// meet-point stitching plus O(k) recursive shortcut expansion — no distance
// probes.
//
// As §3.3 explains, FC's preprocessing is what AH fixes: it is quadratic-ish
// and only applicable to small networks. Build() is intended for graphs up
// to a few tens of thousands of nodes. The per-source shortcut searches are
// embarrassingly parallel and run on ParallelChunks with per-thread scratch;
// chunk-ordered merging keeps the result deterministic at any thread count.
//
// Correctness note: with the level constraint alone FC is exact on *any*
// graph and *any* level function (the §3.4 upswing argument only uses the
// shortcut definition); the proximity constraint additionally relies on the
// arterial-dimension assumption, exactly as in the paper.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "graph/graph.h"
#include "graph/light_graph.h"
#include "hgrid/grid_hierarchy.h"
#include "routing/path.h"
#include "util/indexed_heap.h"
#include "util/types.h"

namespace ah {

struct FcParams {
  std::int32_t max_grid_depth = 14;
  std::uint64_t seed = 7;
  /// Worker threads for the per-source shortcut searches (0 = the
  /// util/parallel.h WorkerThreads() default). The built index is
  /// bit-identical regardless of thread count: per-chunk outputs are merged
  /// in chunk order.
  std::size_t build_threads = 0;
};

struct FcBuildStats {
  double seconds = 0;
  double arterial_seconds = 0;
  std::size_t shortcuts = 0;
  std::size_t unpack_arcs = 0;  ///< Unpack-only parent-chain arcs.
  Level max_level = 0;
  Level grid_depth = 0;
};

class FcIndex {
 public:
  /// Throws std::overflow_error, naming the arc, when a shortcut distance
  /// does not fit a 32-bit arc weight (at least kMaxWeight).
  static FcIndex Build(const Graph& g, const FcParams& params = {});

  std::size_t NumNodes() const { return level_.size(); }
  Level LevelOf(NodeId v) const { return level_[v]; }
  const LightGraph& hierarchy() const { return hierarchy_; }
  const GridHierarchy& grids() const { return grids_; }
  const Point& Coord(NodeId v) const { return coords_[v]; }
  const FcBuildStats& build_stats() const { return build_stats_; }

  std::size_t SizeBytes() const;

  /// Binary persistence (magic "AHFC"). The grid stack is derived data and
  /// is rebuilt deterministically from the stored coordinates on Load.
  void Save(std::ostream& out) const;
  static FcIndex Load(std::istream& in);

 private:
  std::vector<Level> level_;
  std::vector<Point> coords_;
  std::int32_t max_grid_depth_ = 14;  // Build parameter; needed by Load.
  GridHierarchy grids_;
  LightGraph hierarchy_;  // Original arcs + shortcuts, with unpack table.
  FcBuildStats build_stats_;
};

struct FcQueryOptions {
  bool use_proximity = true;
};

/// Bidirectional constrained Dijkstra over the FC hierarchy (§3.2).
class FcQuery {
 public:
  explicit FcQuery(const FcIndex& index, FcQueryOptions options = {});

  Dist Distance(NodeId s, NodeId t);

  /// Shortest path in the original graph: the hierarchy-space path of the
  /// bidirectional search (stitched at the meet node) expanded through the
  /// shortcut midpoint table. Exact whenever Distance is (always with the
  /// proximity constraint off; on road-like inputs with it on).
  PathResult Path(NodeId s, NodeId t);

  std::size_t LastSettled() const { return last_settled_; }

 private:
  struct Side {
    IndexedHeap heap;
    std::vector<Dist> dist;
    std::vector<NodeId> parent;
    std::vector<std::uint32_t> stamp;
  };

  bool Allowed(NodeId from, NodeId to, const std::vector<Cell>& cells) const;

  /// The bidirectional search behind Distance/Path; records per-side parent
  /// pointers and the meet node. Precondition: s != t.
  Dist RunSearch(NodeId s, NodeId t);

  NodeId ParentOf(const Side& side, NodeId v) const {
    return side.stamp[v] == round_ ? side.parent[v] : kInvalidNode;
  }

  const FcIndex& index_;
  FcQueryOptions options_;
  Side fwd_;
  Side bwd_;
  std::vector<Cell> s_cells_;
  std::vector<Cell> t_cells_;
  std::uint32_t round_ = 0;
  std::size_t last_settled_ = 0;
  NodeId meet_ = kInvalidNode;
};

}  // namespace ah
