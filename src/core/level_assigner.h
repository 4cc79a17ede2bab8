// AH level assignment (§4.2 "Deciding Node Levels").
//
// Starting from the full graph, each iteration i imposes grid R_i on the
// current (shrinking) graph, finds the pseudo-arterial edges of every 4×4
// window, and promotes their endpoints to level-i cores. Nodes not promoted
// settle at level i−1. The graph is then reduced to a distance-preserving
// overlay on the cores (witness-search contraction of all non-cores) and the
// next iteration proceeds on it — this is what makes AH's preprocessing
// near-linear in practice, in contrast to FC's per-level recomputation on
// the original graph.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "hgrid/grid_hierarchy.h"
#include "hier/contraction.h"
#include "perturb/perturb.h"
#include "util/types.h"

namespace ah {

struct LevelAssignParams {
  ContractionParams contraction;
  /// Stop promoting once fewer active cores remain than this (they keep the
  /// current top level); avoids degenerate near-empty top iterations.
  std::size_t min_active_nodes = 2;
  /// Window anchor stride during level computation. 1 examines every window
  /// offset (the paper's definition — required for the pruned query mode to
  /// be exact: sparser strides miss arterial edges and break the Lemma-3
  /// property, which the ME-scale tests demonstrate). Values > 1 are an
  /// experimental speed knob for exact-mode-only deployments.
  std::int32_t window_stride = 1;
};

/// The cost of one iteration of the level computation (diagnostics).
struct LevelIterationStats {
  /// Non-empty 4×4 windows of the iteration's grid.
  std::size_t windows = 0;
  /// Local Dijkstra runs over those windows (WindowProcessor::NumSearches).
  std::size_t searches = 0;
  /// Wall-clock time of the iteration: window scan plus overlay reduction.
  double seconds = 0;
};

struct LevelAssignment {
  /// Final level per node, in [0, max_level].
  std::vector<Level> level;
  /// pseudo_arterial[i-1] = the S_i edge endpoint pairs found at iteration i
  /// (input to the §4.4 vertex-cover ordering).
  std::vector<std::vector<std::pair<NodeId, NodeId>>> pseudo_arterial;
  /// Highest level actually assigned.
  Level max_level = 0;
  /// Active-core count after each iteration (diagnostics; index i-1 =
  /// cores remaining after iteration i).
  std::vector<std::size_t> cores_per_iteration;
  /// Cost of each iteration run (index i-1 = iteration i), including a
  /// final one that promoted nothing.
  std::vector<LevelIterationStats> iterations;
};

/// Runs the incremental level computation over grids R_1..R_h.
LevelAssignment AssignLevels(const Graph& g, const GridHierarchy& gh,
                             const Nuance& nuance,
                             const LevelAssignParams& params = {});

}  // namespace ah
