#include "hier/greedy_order.h"

#include <cstdint>
#include <numeric>

#include "util/indexed_heap.h"

namespace ah {

namespace {

// Priorities can be negative; bias into the unsigned key domain.
constexpr Dist kBias = 1ull << 32;

Dist Priority(ContractionEngine& engine, NodeId v,
              const GreedyOrderParams& params) {
  const std::int64_t added =
      static_cast<std::int64_t>(engine.SimulateContraction(v));
  const std::int64_t removed =
      static_cast<std::int64_t>(engine.CurrentOutDegree(v)) +
      static_cast<std::int64_t>(engine.CurrentInDegree(v));
  const std::int64_t neighbors =
      static_cast<std::int64_t>(engine.ContractedNeighborCount(v));
  return static_cast<Dist>(params.edge_diff_weight * (added - removed) +
                           params.neighbor_weight * neighbors +
                           static_cast<std::int64_t>(kBias));
}

}  // namespace

std::vector<NodeId> ContractGreedySubset(ContractionEngine& engine,
                                         std::span<const NodeId> subset,
                                         const GreedyOrderParams& params) {
  IndexedHeap queue(engine.NumNodes());
  for (NodeId v : subset) queue.PushOrDecrease(v, Priority(engine, v, params));

  std::vector<NodeId> order;
  order.reserve(subset.size());
  while (!queue.Empty()) {
    auto [key, v] = queue.PopMin();
    const Dist fresh = Priority(engine, v, params);
    if (!queue.Empty() && fresh > queue.MinKey()) {
      queue.PushOrDecrease(v, fresh);  // Lazy update: requeue and retry.
      continue;
    }
    engine.Contract(v);
    order.push_back(v);
  }
  return order;
}

std::vector<Rank> ContractAllGreedy(ContractionEngine& engine,
                                    const GreedyOrderParams& params) {
  const std::size_t n = engine.NumNodes();
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), 0);
  const std::vector<NodeId> order = ContractGreedySubset(engine, all, params);
  std::vector<Rank> rank(n, 0);
  for (Rank r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

}  // namespace ah
