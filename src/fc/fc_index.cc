#include "fc/fc_index.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "arterial/arterial.h"
#include "hier/contraction.h"
#include "perturb/perturb.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace ah {

FcIndex FcIndex::Build(const Graph& g, const FcParams& params) {
  Timer total;
  FcIndex index;
  const std::size_t n = g.NumNodes();
  index.coords_ = g.Coords();
  index.max_grid_depth_ = params.max_grid_depth;
  index.grids_ = GridHierarchy(index.coords_, params.max_grid_depth);

  Timer phase;
  const Nuance nuance(params.seed);
  ArterialLevels levels =
      ComputeArterialLevels(g, index.grids_, nuance);
  index.level_ = std::move(levels.node_level);
  index.build_stats_.arterial_seconds = phase.Seconds();
  index.build_stats_.grid_depth = index.grids_.Depth();
  for (Level lv : index.level_) {
    index.build_stats_.max_level = std::max(index.build_stats_.max_level, lv);
  }

  // Shortcut construction: from every node u, a lexicographic Dijkstra on
  // (distance, max internal level). A pair (u,v) gets a shortcut iff the
  // best shortest path keeps all internal nodes strictly below
  // min(level(u), level(v)). Internal nodes of level >= level(u) can never
  // appear on a qualifying path, so expansion is pruned there — which keeps
  // the search local for low-level sources.
  //
  // Path unpacking: each shortcut stores the predecessor of its head on the
  // certified path as its midpoint, and after each per-source search the
  // parent chains of all emitted shortcuts are materialized as unpack-only
  // arcs. Every expansion half (u, x) then resolves in the unpack table —
  // as a search entry of weight dist(x) or, when parent(x) == u, as the
  // original min-weight arc u→x — so recursive expansion terminates in
  // O(path length).
  const Level h = index.grids_.Depth();
  const Dist kEncBase = static_cast<Dist>(h) + 3;
  std::vector<HierArc> hier_arcs = ArcsOf(g);
  const std::size_t original_arcs = hier_arcs.size();
  std::vector<HierArc> unpack_arcs;

  // The per-source searches are independent: chunk the sources across
  // worker threads (per-thread scratch, per-chunk output) and concatenate
  // the chunk outputs in chunk order — sources are ascending within a chunk
  // and chunks cover ascending ranges, so the arc order (and therefore the
  // built index) is bit-identical to the sequential build at any thread
  // count, the same guarantee util/parallel.h documents.
  struct SearchScratch {
    explicit SearchScratch(std::size_t nodes)
        : heap(nodes),
          dist(nodes, kInfDist),
          max_internal(nodes, 0),
          parent(nodes, kInvalidNode),
          stamp(nodes, 0),
          entry_stamp(nodes, 0) {}
    IndexedHeap heap;
    std::vector<Dist> dist;
    std::vector<Level> max_internal;  // Encoded: 0 = none, k+1 = level k.
    std::vector<NodeId> parent;
    std::vector<std::uint32_t> stamp;
    std::vector<std::uint32_t> entry_stamp;  // Has a (u,·) search entry.
    std::vector<NodeId> shortcut_heads;
    std::uint32_t round = 0;
  };
  // Shortcut and unpack arcs hold 32-bit weights. A longer shortcut
  // distance is not truncated (that answers wrong later): the search stops
  // at the arc and the build throws for the first such arc in source order.
  // Unpack arcs need no check: they lie on a shortcut's parent chain, so
  // with positive weights they are shorter than that shortcut.
  struct Overflow {
    NodeId tail = kInvalidNode;
    NodeId head = kInvalidNode;
    Dist dist = 0;
  };

  const auto search_from = [&](NodeId u, SearchScratch& sc,
                               std::vector<HierArc>& shortcuts,
                               std::vector<HierArc>& unpack,
                               Overflow& overflow) {
    const Level lu = index.level_[u];
    const std::uint32_t round = ++sc.round;
    sc.heap.Clear();
    sc.shortcut_heads.clear();
    sc.stamp[u] = round;
    sc.dist[u] = 0;
    sc.max_internal[u] = 0;
    sc.parent[u] = kInvalidNode;
    sc.heap.PushOrDecrease(u, 0);
    while (!sc.heap.Empty()) {
      auto [key, x] = sc.heap.PopMin();
      const Dist dx = key / kEncBase;
      const Level enc_x = static_cast<Level>(key % kEncBase);
      if (dx > sc.dist[x] || (dx == sc.dist[x] && enc_x > sc.max_internal[x])) {
        continue;  // Stale entry.
      }
      if (x != u) {
        const Level lv = index.level_[x];
        const Level internal = enc_x - 1;  // -1 when no internal node.
        if (enc_x == 0 || internal < std::min(lu, lv)) {
          // enc_x == 0 iff the certified path is the direct arc u→x, in
          // which case parent[x] == u and the midpoint stays invalid.
          const NodeId mid = sc.parent[x] == u ? kInvalidNode : sc.parent[x];
          if (dx >= kMaxWeight) {
            overflow = Overflow{u, x, dx};
            return false;
          }
          shortcuts.push_back(HierArc{u, x, static_cast<Weight>(dx), mid});
          sc.entry_stamp[x] = round;
          sc.shortcut_heads.push_back(x);
        }
        // Expanding through x makes x internal; prune when that can never
        // qualify (internal level >= lu).
        if (index.level_[x] >= lu) continue;
      }
      const Level enc_via =
          x == u ? 0
                 : std::max(enc_x, static_cast<Level>(index.level_[x] + 1));
      for (const Arc& a : g.OutArcs(x)) {
        const Dist nd = sc.dist[x] + a.weight;
        const Dist nkey = nd * kEncBase + static_cast<Dist>(enc_via);
        if (sc.stamp[a.head] != round || nd < sc.dist[a.head] ||
            (nd == sc.dist[a.head] && enc_via < sc.max_internal[a.head])) {
          sc.stamp[a.head] = round;
          sc.dist[a.head] = nd;
          sc.max_internal[a.head] = enc_via;
          sc.parent[a.head] = x;
          sc.heap.PushOrDecrease(a.head, nkey);
        }
      }
    }
    // Parent-chain closure: chain nodes without a shortcut of their own get
    // an unpack-only arc. Chains of distinct shortcuts share suffixes, so
    // each node is emitted at most once per source.
    for (const NodeId v : sc.shortcut_heads) {
      for (NodeId x = sc.parent[v]; x != u && sc.entry_stamp[x] != round;
           x = sc.parent[x]) {
        sc.entry_stamp[x] = round;
        if (sc.parent[x] != u) {
          unpack.push_back(
              HierArc{u, x, static_cast<Weight>(sc.dist[x]), sc.parent[x]});
        }
        // sc.parent[x] == u: (u,x) is the original min-weight arc, which is
        // already in the table.
      }
    }
    return true;
  };

  const std::size_t threads =
      params.build_threads == 0 ? WorkerThreads() : params.build_threads;
  // Fixed chunk size (independent of thread count) so chunk boundaries —
  // and therefore the merged arc order — never vary with parallelism.
  const std::size_t chunk_size = 64;
  const std::size_t num_chunks = n == 0 ? 0 : (n + chunk_size - 1) / chunk_size;
  std::vector<std::vector<HierArc>> chunk_shortcuts(num_chunks);
  std::vector<std::vector<HierArc>> chunk_unpack(num_chunks);
  std::vector<Overflow> chunk_overflow(num_chunks);
  std::vector<std::unique_ptr<SearchScratch>> scratch(
      std::min<std::size_t>(std::max<std::size_t>(threads, 1), num_chunks));
  ParallelChunks(
      n, chunk_size,
      [&](std::size_t chunk, std::size_t begin, std::size_t end,
          std::size_t tid) {
        if (!scratch[tid]) scratch[tid] = std::make_unique<SearchScratch>(n);
        SearchScratch& sc = *scratch[tid];
        for (std::size_t u = begin; u < end; ++u) {
          if (!search_from(static_cast<NodeId>(u), sc, chunk_shortcuts[chunk],
                           chunk_unpack[chunk], chunk_overflow[chunk])) {
            break;
          }
        }
      },
      threads);
  for (const Overflow& o : chunk_overflow) {
    if (o.tail != kInvalidNode) {
      throw std::overflow_error(
          "FcIndex::Build: arc " + std::to_string(o.tail) + "->" +
          std::to_string(o.head) + " has distance " + std::to_string(o.dist) +
          ", beyond fc's 32-bit arc weights");
    }
  }
  for (std::size_t c = 0; c < num_chunks; ++c) {
    hier_arcs.insert(hier_arcs.end(), chunk_shortcuts[c].begin(),
                     chunk_shortcuts[c].end());
    unpack_arcs.insert(unpack_arcs.end(), chunk_unpack[c].begin(),
                       chunk_unpack[c].end());
  }
  index.build_stats_.shortcuts = hier_arcs.size() - original_arcs;
  index.build_stats_.unpack_arcs = unpack_arcs.size();
  index.hierarchy_ = LightGraph(n, hier_arcs, unpack_arcs);
  index.build_stats_.seconds = total.Seconds();
  return index;
}

std::size_t FcIndex::SizeBytes() const {
  return level_.size() * sizeof(Level) + coords_.size() * sizeof(Point) +
         grids_.SizeBytes() + hierarchy_.SizeBytes();
}

void FcIndex::Save(std::ostream& out) const {
  BinaryWriter w(out);
  w.Magic("AHFC", 1);
  w.Pod<std::int32_t>(max_grid_depth_);
  w.Vector(level_);
  w.Vector(coords_);
  hierarchy_.Save(out);
  w.Pod(build_stats_.seconds);
  w.Pod(build_stats_.arterial_seconds);
  w.Pod<std::uint64_t>(build_stats_.shortcuts);
  w.Pod<std::uint64_t>(build_stats_.unpack_arcs);
  w.Pod<std::int32_t>(build_stats_.max_level);
  w.Pod<std::int32_t>(build_stats_.grid_depth);
}

FcIndex FcIndex::Load(std::istream& in) {
  BinaryReader r(in);
  r.Magic("AHFC", 1);
  FcIndex index;
  index.max_grid_depth_ = r.Pod<std::int32_t>();
  index.level_ = r.Vector<Level>();
  index.coords_ = r.Vector<Point>();
  index.hierarchy_ = LightGraph::Load(in);
  index.build_stats_.seconds = r.Pod<double>();
  index.build_stats_.arterial_seconds = r.Pod<double>();
  index.build_stats_.shortcuts = r.Pod<std::uint64_t>();
  index.build_stats_.unpack_arcs = r.Pod<std::uint64_t>();
  index.build_stats_.max_level = r.Pod<std::int32_t>();
  index.build_stats_.grid_depth = r.Pod<std::int32_t>();
  if (index.level_.size() != index.coords_.size() ||
      index.hierarchy_.NumNodes() != index.level_.size() ||
      !index.hierarchy_.HasMids()) {
    throw std::runtime_error("FcIndex::Load: inconsistent structure");
  }
  index.grids_ = GridHierarchy(index.coords_, index.max_grid_depth_);
  return index;
}

FcQuery::FcQuery(const FcIndex& index, FcQueryOptions options)
    : index_(index), options_(options) {
  const std::size_t n = index.NumNodes();
  for (Side* side : {&fwd_, &bwd_}) {
    side->heap.Resize(n);
    side->dist.assign(n, kInfDist);
    side->parent.assign(n, kInvalidNode);
    side->stamp.assign(n, 0);
  }
}

bool FcQuery::Allowed(NodeId from, NodeId to,
                      const std::vector<Cell>& cells) const {
  // Level constraint: never descend.
  const Level lf = index_.LevelOf(from);
  const Level lt = index_.LevelOf(to);
  if (lt < lf) return false;
  if (!options_.use_proximity) return true;
  const Level gi = lt + 1;
  if (gi > index_.grids().Depth()) return true;
  const Cell vc = index_.grids().Grid(gi).CellOf(index_.Coord(to));
  return SquareGrid::WithinThreeByThree(cells[gi - 1], vc);
}

Dist FcQuery::Distance(NodeId s, NodeId t) {
  if (s == t) {
    last_settled_ = 0;
    return 0;
  }
  return RunSearch(s, t);
}

PathResult FcQuery::Path(NodeId s, NodeId t) {
  PathResult result;
  if (s == t) {
    last_settled_ = 0;
    result.length = 0;
    result.nodes = {s};
    return result;
  }
  result.length = RunSearch(s, t);
  if (result.length == kInfDist) return result;

  // Hierarchy-space path: s ... meet via forward parents, meet ... t via
  // backward parents; consecutive elements are arcs of the hierarchy.
  std::vector<NodeId> hpath;
  for (NodeId v = meet_; v != kInvalidNode; v = ParentOf(fwd_, v)) {
    hpath.push_back(v);
  }
  std::reverse(hpath.begin(), hpath.end());
  for (NodeId v = ParentOf(bwd_, meet_); v != kInvalidNode;
       v = ParentOf(bwd_, v)) {
    hpath.push_back(v);
  }
  result.nodes = index_.hierarchy().UnpackPath(hpath);
  return result;
}

Dist FcQuery::RunSearch(NodeId s, NodeId t) {
  ++round_;
  fwd_.heap.Clear();
  bwd_.heap.Clear();
  last_settled_ = 0;
  meet_ = kInvalidNode;

  const Level depth = index_.grids().Depth();
  s_cells_.resize(depth);
  t_cells_.resize(depth);
  for (Level i = 1; i <= depth; ++i) {
    s_cells_[i - 1] = index_.grids().Grid(i).CellOf(index_.Coord(s));
    t_cells_[i - 1] = index_.grids().Grid(i).CellOf(index_.Coord(t));
  }

  fwd_.stamp[s] = round_;
  fwd_.dist[s] = 0;
  fwd_.parent[s] = kInvalidNode;
  fwd_.heap.PushOrDecrease(s, 0);
  bwd_.stamp[t] = round_;
  bwd_.dist[t] = 0;
  bwd_.parent[t] = kInvalidNode;
  bwd_.heap.PushOrDecrease(t, 0);

  Dist best = kInfDist;
  bool forward_turn = true;
  const LightGraph& hg = index_.hierarchy();
  while (!fwd_.heap.Empty() || !bwd_.heap.Empty()) {
    const Dist fmin = fwd_.heap.Empty() ? kInfDist : fwd_.heap.MinKey();
    const Dist bmin = bwd_.heap.Empty() ? kInfDist : bwd_.heap.MinKey();
    if (best <= std::min(fmin, bmin)) break;
    if (forward_turn && fwd_.heap.Empty()) forward_turn = false;
    if (!forward_turn && bwd_.heap.Empty()) forward_turn = true;

    Side& side = forward_turn ? fwd_ : bwd_;
    const Side& other = forward_turn ? bwd_ : fwd_;
    const auto& cells = forward_turn ? s_cells_ : t_cells_;
    auto [d, u] = side.heap.PopMin();
    ++last_settled_;
    if (other.stamp[u] == round_) {
      const Dist via = d + other.dist[u];
      if (via < best) {
        best = via;
        meet_ = u;
      }
    }
    const auto arcs = forward_turn ? hg.OutArcs(u) : hg.InArcs(u);
    for (const Arc& a : arcs) {
      if (!Allowed(u, a.head, cells)) continue;
      const Dist nd = d + a.weight;
      if (side.stamp[a.head] != round_ || nd < side.dist[a.head]) {
        side.stamp[a.head] = round_;
        side.dist[a.head] = nd;
        side.parent[a.head] = u;
        side.heap.PushOrDecrease(a.head, nd);
      }
    }
    forward_turn = !forward_turn;
  }
  return best;
}

}  // namespace ah
