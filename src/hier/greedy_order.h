// Lazy greedy contraction ordering (edge difference + contracted-neighbor
// count), shared by CH (over the whole node set) and AH (within each
// hierarchy level, where §4.4 permits any strict total order).
#pragma once

#include <span>
#include <vector>

#include "hier/contraction.h"
#include "util/types.h"

namespace ah {

struct GreedyOrderParams {
  int edge_diff_weight = 16;
  int neighbor_weight = 4;
};

/// Contracts every node of `subset` in lazy greedy priority order and
/// returns the order used. All subset nodes must be active in `engine`;
/// nodes outside the subset are untouched.
std::vector<NodeId> ContractGreedySubset(ContractionEngine& engine,
                                         std::span<const NodeId> subset,
                                         const GreedyOrderParams& params = {});

/// Contracts every node of `engine` in lazy greedy order — the hierarchy CH
/// queries and hl's labels are built from — and returns each node's rank,
/// its position in that order. All nodes must be active.
std::vector<Rank> ContractAllGreedy(ContractionEngine& engine,
                                    const GreedyOrderParams& params = {});

}  // namespace ah
