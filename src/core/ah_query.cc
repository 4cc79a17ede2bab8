#include "core/ah_query.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

namespace ah {

namespace {

/// Proximity filter (§3.2, reused by AH): an arc into node v at level i may
/// only be taken when v and the search endpoint are covered by a common
/// 3×3-cell region of R_(i+1). Nodes whose level+1 exceeds the grid depth
/// are exempt (top of the hierarchy). Cells come from the index's
/// precomputed per-level table — this runs once per relaxed arc.
struct ProximityFilter {
  const AhIndex* index;
  const std::vector<Cell>* endpoint_cells;  // Cell of endpoint per grid level.

  bool operator()(NodeId /*from*/, NodeId to) const {
    const Level lv = index->LevelOf(to);
    // The top *populated* level plays the role of level h: its nodes form
    // the apex every far query must cross, so they are exempt even when the
    // level computation stopped below the grid depth (early-stop builds).
    if (lv >= index->MaxLevel()) return true;
    const Level gi = lv + 1;
    if (gi > index->grids().Depth()) return true;
    return SquareGrid::WithinThreeByThree((*endpoint_cells)[gi - 1],
                                          index->CellAt(gi, to));
  }
};

}  // namespace

AhQuery::AhQuery(const AhIndex& index, AhQueryOptions options)
    : index_(index),
      options_(options),
      search_(index.search_graph()),
      gateway_search_(index),
      walk_dist_(index.NumNodes(), kInfDist),
      walk_via_(index.NumNodes()),
      walk_stamp_(index.NumNodes(), 0) {}

void AhQuery::BuildSeeds(
    NodeId endpoint, Level j, bool forward, std::vector<SearchSeed>* seeds,
    std::vector<std::pair<NodeId, SeedWalkRecord>>* record) {
  seeds->clear();
  if (j <= index_.LevelOf(endpoint)) {
    seeds->push_back(SearchSeed{endpoint, 0});
    return;
  }

  // Tiny Dijkstra over gateway hops: climb as close to level j as the
  // stored band allows, as the paper's traversal does with elevating edges.
  // State lives in timestamped member arrays: no allocation, no hashing.
  ++walk_round_;
  walk_heap_.clear();
  walk_touched_.clear();
  auto heap_less = [](const WalkHeapEntry& a, const WalkHeapEntry& b) {
    return a.dist > b.dist;  // Min-heap.
  };
  auto touch = [&](NodeId node, Dist d, const SeedWalkRecord& rec) {
    if (walk_stamp_[node] != walk_round_) {
      walk_stamp_[node] = walk_round_;
      walk_touched_.push_back(node);
    } else if (walk_dist_[node] <= d) {
      return false;
    }
    walk_dist_[node] = d;
    walk_via_[node] = rec;
    return true;
  };
  touch(endpoint, 0, SeedWalkRecord{});
  walk_heap_.push_back(WalkHeapEntry{0, endpoint});
  std::size_t pops = 0;

  while (!walk_heap_.empty()) {
    std::pop_heap(walk_heap_.begin(), walk_heap_.end(), heap_less);
    const auto [d, x] = walk_heap_.back();
    walk_heap_.pop_back();
    if (walk_dist_[x] != d) continue;  // Stale entry.
    const Level lx = index_.LevelOf(x);
    bool is_seed = lx >= j || ++pops > options_.max_seed_walk;
    std::span<const Gateway> gws;
    Level jump = 0;
    if (!is_seed) {
      jump = std::min<Level>(lx + index_.params().gateway_band, j);
      gws = forward ? index_.FwdGateways(x, jump)
                    : index_.BwdGateways(x, jump);
      if (gws.empty()) is_seed = true;  // No elevating edge: search normally.
    }
    if (is_seed) {
      seeds->push_back(SearchSeed{x, d});
      continue;
    }
    for (const Gateway& gw : gws) {
      const Dist nd = d + gw.dist;
      if (!touch(gw.node, nd, SeedWalkRecord{x, jump})) continue;
      walk_heap_.push_back(WalkHeapEntry{nd, gw.node});
      std::push_heap(walk_heap_.begin(), walk_heap_.end(), heap_less);
    }
  }

  if (record != nullptr) {
    record->clear();
    for (NodeId node : walk_touched_) {
      record->emplace_back(node, walk_via_[node]);
    }
    std::sort(record->begin(), record->end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  if (seeds->empty()) seeds->push_back(SearchSeed{endpoint, 0});
}

Dist AhQuery::RunSearch(NodeId s, NodeId t, bool collect_records) {
  cur_s_ = s;
  cur_t_ = t;
  const bool pruned = options_.mode == AhQueryMode::kPruned;
  const bool proximity = pruned && options_.use_proximity;

  jump_level_ = pruned ? index_.QueryJumpLevel(s, t) : 0;

  fwd_seeds_.assign(1, SearchSeed{s, 0});
  bwd_seeds_.assign(1, SearchSeed{t, 0});
  fwd_record_.clear();
  bwd_record_.clear();
  if (jump_level_ > 0) {
    BuildSeeds(s, jump_level_, /*forward=*/true, &fwd_seeds_,
               collect_records ? &fwd_record_ : nullptr);
    BuildSeeds(t, jump_level_, /*forward=*/false, &bwd_seeds_,
               collect_records ? &bwd_record_ : nullptr);
  }

  if (!proximity) {
    return search_.Run(std::span<const SearchSeed>(fwd_seeds_),
                       std::span<const SearchSeed>(bwd_seeds_));
  }

  // Look up the endpoints' cells at every grid level (precomputed table).
  const Level depth = index_.grids().Depth();
  s_cells_.resize(depth);
  t_cells_.resize(depth);
  for (Level i = 1; i <= depth; ++i) {
    s_cells_[i - 1] = index_.CellAt(i, s);
    t_cells_[i - 1] = index_.CellAt(i, t);
  }
  const ProximityFilter fwd_filter{&index_, &s_cells_};
  const ProximityFilter bwd_filter{&index_, &t_cells_};
  return search_.Run(std::span<const SearchSeed>(fwd_seeds_),
                     std::span<const SearchSeed>(bwd_seeds_), fwd_filter,
                     bwd_filter);
}

Dist AhQuery::Distance(NodeId s, NodeId t) {
  if (s == t) return 0;
  return RunSearch(s, t, /*collect_records=*/false);
}

std::vector<NodeId> AhQuery::ExpandSeedChain(
    NodeId endpoint, NodeId seed, bool forward,
    const std::vector<std::pair<NodeId, SeedWalkRecord>>& record) {
  // Returns the original-graph node sequence endpoint→seed (forward) or
  // seed→endpoint (backward). Empty result means "no expansion needed"
  // (seed == endpoint).
  std::vector<NodeId> hops;  // Gateway hop nodes, endpoint ... seed.
  NodeId cur = seed;
  hops.push_back(cur);
  while (cur != endpoint) {
    auto it = std::lower_bound(
        record.begin(), record.end(), cur,
        [](const auto& entry, NodeId key) { return entry.first < key; });
    if (it == record.end() || it->first != cur ||
        it->second.prev == kInvalidNode) {
      break;  // Chain exhausted (seed == endpoint case handled below).
    }
    cur = it->second.prev;
    hops.push_back(cur);
  }
  std::reverse(hops.begin(), hops.end());  // endpoint ... seed.

  std::vector<NodeId> path{endpoint};
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    const NodeId from = hops[i];
    const NodeId to = hops[i + 1];
    // Find the jump level that connected from→to.
    auto it = std::lower_bound(
        record.begin(), record.end(), to,
        [](const auto& entry, NodeId key) { return entry.first < key; });
    const Level jump = it->second.jump_level;
    // Re-run the bounded gateway search to recover the hierarchy chain.
    gateway_search_.Run(from, jump, forward);
    std::vector<NodeId> chain = gateway_search_.ChainFrom(to);
    if (chain.size() < 2) {
      // Fallback (should not trigger): exact rank-only search between the
      // hop endpoints, oriented the same way as the main branch's chain.
      BidirUpwardSearch exact(index_.search_graph());
      const NodeId a = forward ? from : to;
      const NodeId b = forward ? to : from;
      exact.Distance(a, b);
      chain = exact.HierarchyPath();
      if (chain.size() < 2) continue;  // Disconnected: give up on this hop.
    } else if (!forward) {
      // Backward discovery orders the chain from→…→to while the real arcs
      // run to→…→from; flip into forward arc orientation.
      std::reverse(chain.begin(), chain.end());
    }
    std::vector<NodeId> expanded = index_.search_graph().UnpackPath(chain);
    if (!forward) std::reverse(expanded.begin(), expanded.end());
    path.insert(path.end(), expanded.begin() + 1, expanded.end());
  }
  if (!forward) std::reverse(path.begin(), path.end());
  return path;
}

PathResult AhQuery::Path(NodeId s, NodeId t) {
  PathResult result;
  if (s == t) {
    result.nodes = {s};
    result.length = 0;
    return result;
  }
  result.length = RunSearch(s, t, /*collect_records=*/true);
  if (result.length == kInfDist) return result;

  // Hierarchy path between the two seed nodes, expanded to original arcs.
  std::vector<NodeId> hier = search_.HierarchyPath();
  std::vector<NodeId> mid = index_.search_graph().UnpackPath(hier);

  const NodeId fwd_seed = search_.FwdSeedOfMeet();
  const NodeId bwd_seed = search_.BwdSeedOfMeet();

  std::vector<NodeId> full;
  if (fwd_seed != s) {
    full = ExpandSeedChain(s, fwd_seed, /*forward=*/true, fwd_record_);
    full.insert(full.end(), mid.begin() + 1, mid.end());
  } else {
    full = std::move(mid);
  }
  if (bwd_seed != t) {
    std::vector<NodeId> tail =
        ExpandSeedChain(t, bwd_seed, /*forward=*/false, bwd_record_);
    // tail reads bwd_seed ... t.
    full.insert(full.end(), tail.begin() + 1, tail.end());
  }
  result.nodes = std::move(full);
  return result;
}

}  // namespace ah
