#include "core/ah_index.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "hier/greedy_order.h"
#include "hier/repair_kernel.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace ah {

AhIndex AhIndex::Build(const Graph& g, const AhParams& params) {
  Timer total;
  AhIndex index;
  index.params_ = params;
  index.coords_ = g.Coords();
  index.grids_ = GridHierarchy(index.coords_, params.max_grid_depth);

  // Cache every node's cell at every grid level (h*n cells); the query-time
  // proximity filter and the gateway searches hit this table per relaxed
  // arc, where recomputing CellOf would cost two 64-bit divisions.
  {
    const std::size_t n = g.NumNodes();
    const Level depth = index.grids_.Depth();
    index.cells_by_level_.resize(static_cast<std::size_t>(depth) * n);
    for (Level i = 1; i <= depth; ++i) {
      const SquareGrid& grid = index.grids_.Grid(i);
      Cell* row = index.cells_by_level_.data() +
                  static_cast<std::size_t>(i - 1) * n;
      for (NodeId v = 0; v < n; ++v) row[v] = grid.CellOf(index.coords_[v]);
    }
  }

  Timer phase;
  const Nuance nuance(params.seed);
  LevelAssignParams level_params = params.levels;
  level_params.contraction = params.contraction;
  const LevelAssignment assignment =
      AssignLevels(g, index.grids_, nuance, level_params);
  index.build_stats_.level_seconds = phase.Seconds();
  index.build_stats_.level_iterations = assignment.iterations;

  phase.Restart();
  OrderingParams order_params = params.ordering;
  if (order_params.seed == OrderingParams{}.seed) {
    order_params.seed = params.seed;
  }
  AhOrdering ordering = ComputeOrdering(assignment, order_params);
  index.level_ = ordering.level;
  index.build_stats_.order_seconds = phase.Seconds();

  phase.Restart();
  const std::size_t n = g.NumNodes();
  ContractionEngine engine(n, ArcsOf(g), params.contraction);
  std::vector<Rank> rank;
  if (order_params.within_level == WithinLevelOrder::kGreedyEdgeDifference) {
    // Contract level by level; inside a level the lazy greedy
    // edge-difference order decides (any within-level order is admissible
    // per §4.4 — this one minimizes shortcut growth like CH does).
    Level top = 0;
    for (Level lv : index.level_) top = std::max(top, lv);
    std::vector<std::vector<NodeId>> by_level(top + 1);
    for (NodeId v = 0; v < n; ++v) by_level[index.level_[v]].push_back(v);
    rank.assign(n, 0);
    Rank next = 0;
    for (const auto& level_nodes : by_level) {
      for (NodeId v : ContractGreedySubset(engine, level_nodes)) {
        rank[v] = next++;
      }
    }
  } else {
    for (NodeId v : ordering.order) engine.Contract(v);
    rank = std::move(ordering.rank);
  }
  index.search_graph_ = SearchGraph(n, engine.EmittedArcs(), std::move(rank));
  index.build_stats_.contract_seconds = phase.Seconds();
  index.build_stats_.shortcuts = engine.NumShortcutsAdded();

  index.build_stats_.grid_depth = index.grids_.Depth();
  Level max_level = 0;
  for (Level lv : index.level_) max_level = std::max(max_level, lv);
  index.build_stats_.max_level = max_level;
  index.build_stats_.nodes_per_level.assign(max_level + 1, 0);
  for (Level lv : index.level_) ++index.build_stats_.nodes_per_level[lv];

  if (params.build_gateways && params.gateway_band > 0) {
    phase.Restart();
    index.BuildGateways();
    index.build_stats_.gateway_seconds = phase.Seconds();
    index.build_stats_.gateway_entries =
        index.fwd_gw_.size() + index.bwd_gw_.size();
  }
  index.build_stats_.total_seconds = total.Seconds();
  return index;
}

AhIndex AhIndex::RebuildWithFrozenOrder(const Graph& g,
                                        const AhIndex& previous) {
  Timer total;
  const std::size_t n = g.NumNodes();
  if (n != previous.NumNodes()) {
    throw std::invalid_argument(
        "AhIndex::RebuildWithFrozenOrder: node count changed");
  }
  AhIndex index;
  // Weight-independent structure carries over: params, grids and cell tables
  // are functions of the coordinates, and the level assignment / rank are
  // frozen by definition of this rebuild.
  index.params_ = previous.params_;
  index.grids_ = previous.grids_;
  index.coords_ = previous.coords_;
  index.cells_by_level_ = previous.cells_by_level_;
  index.level_ = previous.level_;

  std::vector<Rank> rank(n, 0);
  for (NodeId v = 0; v < n; ++v) rank[v] = previous.search_graph_.RankOf(v);
  Timer phase;
  RepairResult repaired =
      RepairContraction(g, previous.search_graph_, index.params_.contraction,
                        previous.witness_certs());
  index.search_graph_ = SearchGraph(n, repaired.arcs, std::move(rank));
  index.witness_certs_ = std::move(repaired.certs);
  index.build_stats_.contract_seconds = phase.Seconds();
  index.build_stats_.shortcuts = repaired.shortcuts;

  index.build_stats_.grid_depth = previous.build_stats_.grid_depth;
  index.build_stats_.max_level = previous.build_stats_.max_level;
  index.build_stats_.nodes_per_level = previous.build_stats_.nodes_per_level;

  // Gateway lists hold exact distances, so they are weight-dependent and
  // must be rebuilt over the fresh search graph.
  if (index.params_.build_gateways && index.params_.gateway_band > 0) {
    phase.Restart();
    index.BuildGateways();
    index.build_stats_.gateway_seconds = phase.Seconds();
    index.build_stats_.gateway_entries =
        index.fwd_gw_.size() + index.bwd_gw_.size();
  }
  index.build_stats_.total_seconds = total.Seconds();
  return index;
}

Level AhIndex::QueryJumpLevel(NodeId s, NodeId t) const {
  const Level sep = grids_.SeparationLevel(coords_[s], coords_[t]);
  return std::min(sep, MaxLevel());
}

void AhIndex::BuildGateways() {
  const std::size_t n = level_.size();
  const std::size_t band = static_cast<std::size_t>(params_.gateway_band);
  constexpr std::size_t kChunk = 512;

  // Per-node searches are independent: process node chunks in parallel and
  // merge in chunk order, which keeps the layout deterministic.
  struct ChunkOut {
    std::vector<Gateway> flat;
    std::vector<std::uint32_t> counts;  // Per (node-in-chunk, slot).
  };

  for (int direction = 0; direction < 2; ++direction) {
    const bool forward = direction == 0;
    auto& first = forward ? fwd_gw_first_ : bwd_gw_first_;
    auto& flat = forward ? fwd_gw_ : bwd_gw_;

    const std::size_t num_chunks = (n + kChunk - 1) / kChunk;
    std::vector<ChunkOut> chunks(num_chunks);
    const std::size_t num_threads = WorkerThreads();
    std::vector<std::unique_ptr<GatewaySearch>> searches(num_threads);
    ParallelChunks(
        n, kChunk,
        [&](std::size_t c, std::size_t begin, std::size_t end,
            std::size_t tid) {
          if (!searches[tid]) {
            searches[tid] = std::make_unique<GatewaySearch>(*this);
          }
          ChunkOut& out = chunks[c];
          out.counts.assign((end - begin) * band, 0);
          for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
            for (std::size_t slot = 0; slot < band; ++slot) {
              const Level j = level_[v] + 1 + static_cast<Level>(slot);
              if (j > MaxLevel()) continue;
              const std::vector<Gateway>& hits =
                  searches[tid]->Run(v, j, forward);
              if (!searches[tid]->Complete() ||
                  hits.size() > params_.gateway_max_entries) {
                continue;  // Store nothing; queries fall back safely.
              }
              out.counts[(v - begin) * band + slot] =
                  static_cast<std::uint32_t>(hits.size());
              out.flat.insert(out.flat.end(), hits.begin(), hits.end());
            }
          }
        },
        num_threads);

    first.assign(n * band + 1, 0);
    std::size_t total = 0;
    for (const ChunkOut& out : chunks) total += out.flat.size();
    flat.clear();
    flat.reserve(total);
    std::size_t slot_index = 0;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const ChunkOut& out = chunks[c];
      std::size_t offset = 0;
      for (std::uint32_t count : out.counts) {
        first[slot_index++] = flat.size();
        flat.insert(flat.end(), out.flat.begin() + offset,
                    out.flat.begin() + offset + count);
        offset += count;
      }
    }
    first[n * band] = flat.size();
  }
}

std::size_t AhIndex::SizeBytes() const {
  return search_graph_.SizeBytes() + level_.size() * sizeof(Level) +
         coords_.size() * sizeof(Point) +
         cells_by_level_.size() * sizeof(Cell) +
         (fwd_gw_first_.size() + bwd_gw_first_.size()) *
             sizeof(std::uint64_t) +
         (fwd_gw_.size() + bwd_gw_.size()) * sizeof(Gateway);
}

namespace {

void SaveParams(BinaryWriter& w, const AhParams& p) {
  w.Pod<std::uint64_t>(p.contraction.witness_settle_limit);
  w.Pod<std::uint64_t>(p.levels.min_active_nodes);
  w.Pod<std::int32_t>(p.levels.window_stride);
  w.Pod<std::int32_t>(static_cast<std::int32_t>(p.ordering.within_level));
  w.Pod<std::uint8_t>(p.ordering.downgrade ? 1 : 0);
  w.Pod<std::uint64_t>(p.ordering.seed);
  w.Pod<std::int32_t>(p.max_grid_depth);
  w.Pod<std::uint8_t>(p.build_gateways ? 1 : 0);
  w.Pod<std::int32_t>(p.gateway_band);
  w.Pod<std::int32_t>(p.gateway_region_radius);
  w.Pod<std::uint64_t>(p.gateway_settle_limit);
  w.Pod<std::uint64_t>(p.gateway_max_entries);
  w.Pod<std::uint64_t>(p.seed);
}

AhParams LoadParams(BinaryReader& r) {
  AhParams p;
  p.contraction.witness_settle_limit = r.Pod<std::uint64_t>();
  p.levels.contraction = p.contraction;
  p.levels.min_active_nodes = r.Pod<std::uint64_t>();
  p.levels.window_stride = r.Pod<std::int32_t>();
  p.ordering.within_level =
      static_cast<WithinLevelOrder>(r.Pod<std::int32_t>());
  p.ordering.downgrade = r.Pod<std::uint8_t>() != 0;
  p.ordering.seed = r.Pod<std::uint64_t>();
  p.max_grid_depth = r.Pod<std::int32_t>();
  p.build_gateways = r.Pod<std::uint8_t>() != 0;
  p.gateway_band = r.Pod<std::int32_t>();
  p.gateway_region_radius = r.Pod<std::int32_t>();
  p.gateway_settle_limit = r.Pod<std::uint64_t>();
  p.gateway_max_entries = r.Pod<std::uint64_t>();
  p.seed = r.Pod<std::uint64_t>();
  return p;
}

}  // namespace

void AhIndex::Save(std::ostream& out) const {
  BinaryWriter w(out);
  w.Magic("AHIX", 1);
  SaveParams(w, params_);
  w.Vector(coords_);
  w.Vector(level_);
  search_graph_.Save(out);
  w.Vector(fwd_gw_first_);
  w.Vector(fwd_gw_);
  w.Vector(bwd_gw_first_);
  w.Vector(bwd_gw_);
  // Build stats (informational; lets a loaded index report its origin).
  w.Pod(build_stats_.total_seconds);
  w.Pod(build_stats_.level_seconds);
  w.Pod(build_stats_.order_seconds);
  w.Pod(build_stats_.contract_seconds);
  w.Pod(build_stats_.gateway_seconds);
  w.Pod<std::uint64_t>(build_stats_.shortcuts);
  w.Pod<std::uint64_t>(build_stats_.gateway_entries);
  w.Pod<std::int32_t>(build_stats_.grid_depth);
  w.Pod<std::int32_t>(build_stats_.max_level);
  w.Vector(build_stats_.nodes_per_level);
}

AhIndex AhIndex::Load(std::istream& in) {
  BinaryReader r(in);
  r.Magic("AHIX", 1);
  AhIndex index;
  index.params_ = LoadParams(r);
  index.coords_ = r.Vector<Point>();
  index.level_ = r.Vector<Level>();
  index.search_graph_ = SearchGraph::Load(in);
  index.fwd_gw_first_ = r.Vector<std::uint64_t>();
  index.fwd_gw_ = r.Vector<Gateway>();
  index.bwd_gw_first_ = r.Vector<std::uint64_t>();
  index.bwd_gw_ = r.Vector<Gateway>();
  index.build_stats_.total_seconds = r.Pod<double>();
  index.build_stats_.level_seconds = r.Pod<double>();
  index.build_stats_.order_seconds = r.Pod<double>();
  index.build_stats_.contract_seconds = r.Pod<double>();
  index.build_stats_.gateway_seconds = r.Pod<double>();
  index.build_stats_.shortcuts = r.Pod<std::uint64_t>();
  index.build_stats_.gateway_entries = r.Pod<std::uint64_t>();
  index.build_stats_.grid_depth = r.Pod<std::int32_t>();
  index.build_stats_.max_level = r.Pod<std::int32_t>();
  index.build_stats_.nodes_per_level = r.Vector<std::size_t>();

  const std::size_t n = index.coords_.size();
  if (index.level_.size() != n || index.search_graph_.NumNodes() != n) {
    throw std::runtime_error("AhIndex::Load: inconsistent node counts");
  }
  // Rebuild the derived structures (deterministic from coords + params).
  index.grids_ = GridHierarchy(index.coords_, index.params_.max_grid_depth);
  if (index.grids_.Depth() != index.build_stats_.grid_depth) {
    throw std::runtime_error("AhIndex::Load: grid depth mismatch");
  }
  const Level depth = index.grids_.Depth();
  index.cells_by_level_.resize(static_cast<std::size_t>(depth) * n);
  for (Level i = 1; i <= depth; ++i) {
    const SquareGrid& grid = index.grids_.Grid(i);
    Cell* row =
        index.cells_by_level_.data() + static_cast<std::size_t>(i - 1) * n;
    for (NodeId v = 0; v < n; ++v) row[v] = grid.CellOf(index.coords_[v]);
  }
  return index;
}

GatewaySearch::GatewaySearch(const AhIndex& index)
    : index_(index),
      heap_(index.NumNodes()),
      dist_(index.NumNodes(), kInfDist),
      parent_(index.NumNodes(), kInvalidNode),
      stamp_(index.NumNodes(), 0) {}

const std::vector<Gateway>& GatewaySearch::Run(NodeId v, Level j,
                                               bool forward) {
  ++round_;
  heap_.Clear();
  hits_.clear();
  complete_ = true;

  const Cell center = index_.CellAt(j, v);
  const std::int32_t radius = index_.params_.gateway_region_radius;
  auto in_region = [&](NodeId x) {
    const Cell c = index_.CellAt(j, x);
    const std::int32_t dx = c.cx > center.cx ? c.cx - center.cx
                                             : center.cx - c.cx;
    const std::int32_t dy = c.cy > center.cy ? c.cy - center.cy
                                             : center.cy - c.cy;
    return dx <= radius && dy <= radius;
  };

  dist_[v] = 0;
  parent_[v] = kInvalidNode;
  stamp_[v] = round_;
  heap_.PushOrDecrease(v, 0);
  std::size_t settled = 0;
  while (!heap_.Empty()) {
    auto [d, u] = heap_.PopMin();
    // Hits absorb the frontier: level >= j means the jump succeeded; a node
    // outside the 5×5 region becomes a *boundary* hit so that every upward
    // chain leaving the region is still represented with an exact distance
    // (dropping it would lose shortest paths whose first level-j node lies
    // beyond the region, and an elevating edge must stand for every upward
    // chain out of the node).
    if (index_.level_[u] >= j || (u != v && !in_region(u))) {
      hits_.push_back(Gateway{.node = u, .dist = d});
      continue;
    }
    if (++settled > index_.params_.gateway_settle_limit) {
      complete_ = false;  // Budget exhausted: frontier may be incomplete.
      break;
    }
    const auto arcs = forward ? index_.search_graph_.UpOut(u)
                              : index_.search_graph_.UpIn(u);
    for (const UpArc& a : arcs) {
      const Dist nd = d + a.weight;
      if (stamp_[a.node] != round_ || nd < dist_[a.node]) {
        stamp_[a.node] = round_;
        dist_[a.node] = nd;
        parent_[a.node] = u;
        heap_.PushOrDecrease(a.node, nd);
      }
    }
  }
  std::sort(hits_.begin(), hits_.end(),
            [](const Gateway& a, const Gateway& b) { return a.node < b.node; });
  return hits_;
}

std::vector<NodeId> GatewaySearch::ChainFrom(NodeId gateway) const {
  std::vector<NodeId> chain;
  if (stamp_[gateway] != round_) return chain;
  for (NodeId x = gateway; x != kInvalidNode; x = parent_[x]) {
    chain.push_back(x);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

}  // namespace ah
