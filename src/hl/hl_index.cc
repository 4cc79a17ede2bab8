#include "hl/hl_index.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "hier/contraction.h"
#include "hier/greedy_order.h"
#include "hier/search_graph.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace ah {

namespace {

/// A label entry during the sweep: the interleaved form, flattened into an
/// HlLabelTable at the end. "AHHL" v1 images stored their labels in exactly
/// this 16-byte form.
struct BuildLabel {
  Rank hub;
  NodeId parent;
  Dist dist;
};

/// One direction's labels during the sweep, by hub rank. The sweep labels
/// ranks in order, so each label is one contiguous piece of `pool`,
/// complete before any lower node reads it.
struct SweepLabels {
  std::vector<BuildLabel> pool;
  std::vector<std::uint64_t> first{0};  // Pool offsets by rank.

  std::span<const BuildLabel> Of(Rank r) const {
    return {pool.data() + first[r], pool.data() + first[r + 1]};
  }
};

/// An upward arc of the node being labeled: the hub rank at its other end,
/// its weight, and the node's original-graph neighbour on it.
struct UpStep {
  Rank rank;
  Dist weight;
  NodeId hop;
};

/// Per-hub scratch of the sweep, indexed by hub rank; kInfDist when unset.
struct SweepScratch {
  explicit SweepScratch(std::size_t n)
      : cand(n, {kInfDist, kInvalidNode}), kept(n, kInfDist) {}

  std::vector<std::pair<Dist, NodeId>> cand;  // Best (distance, parent).
  std::vector<Rank> touched;
  std::vector<Dist> kept;
};

/// Appends rank r's label to `labels`: its upward neighbours' labels plus
/// the arc weight, min-merged per hub and walked in ascending hub rank. A
/// candidate (h, d) is kept unless a hub x kept before it gives
/// kept[x] + mirror(h)[x] <= d (PLL's pruning test); then r itself at 0.
/// `mirror` holds the opposite direction's labels of every rank above r.
void SweepRank(Rank r, std::span<const UpStep> up, const SweepLabels& mirror,
               SweepScratch& s, SweepLabels* labels) {
  for (const UpStep& step : up) {
    for (const BuildLabel& l : labels->Of(step.rank)) {
      auto& [dist, parent] = s.cand[l.hub];
      if (dist == kInfDist) s.touched.push_back(l.hub);
      if (l.dist + step.weight < dist) {
        dist = l.dist + step.weight;
        parent = step.hop;
      }
    }
  }
  std::sort(s.touched.begin(), s.touched.end());
  const std::size_t begin = labels->pool.size();
  for (const Rank h : s.touched) {
    const auto [d, parent] =
        std::exchange(s.cand[h], {kInfDist, kInvalidNode});
    const auto covers = [&](const BuildLabel& x) {
      return x.dist <= d && s.kept[x.hub] <= d - x.dist;
    };
    if (std::none_of(mirror.Of(h).begin(), mirror.Of(h).end(), covers)) {
      s.kept[h] = d;
      labels->pool.push_back({h, parent, d});
    }
  }
  s.touched.clear();
  for (std::size_t i = begin; i < labels->pool.size(); ++i) {
    s.kept[labels->pool[i].hub] = kInfDist;
  }
  labels->pool.push_back({r, kInvalidNode, 0});
  labels->first.push_back(labels->pool.size());
}

/// Parent of `v`'s label for `hub` (binary search over the hot entries,
/// then one cold read); kInvalidNode if `v` has no such label or it is the
/// hub's own label.
NodeId ParentOf(const HlLabelTable& table, NodeId v, Rank hub) {
  const std::span<const HlEntry> labels = table.Of(v);
  const auto it = std::lower_bound(
      labels.begin(), labels.end(), hub,
      [](const HlEntry& e, Rank r) { return e.hub < r; });
  if (it == labels.end() || it->hub != hub) return kInvalidNode;
  return table.parent[table.first[v] + (it - labels.begin())];
}

/// Merge join of Lout(s) and Lin(t) over the hot entries. Returns the
/// minimum of dout + din over common hubs and, via `best_rank`, its hub
/// (ties: lowest rank). An overflow sentinel is a lower bound of its exact
/// distance, so the overflow lists are consulted only when the bound would
/// improve the current best.
Dist MergeJoin(const HlLabelTable& out, NodeId s, const HlLabelTable& in,
               NodeId t, Rank* best_rank) {
  const HlEntry* const a_begin = out.hot.data() + out.first[s];
  const HlEntry* const a_end = out.hot.data() + out.first[s + 1];
  const HlEntry* const b_begin = in.hot.data() + in.first[t];
  const HlEntry* const b_end = in.hot.data() + in.first[t + 1];
  const HlEntry* a = a_begin;
  const HlEntry* b = b_begin;
  Dist best = kInfDist;
  while (a != a_end && b != b_end) {
    if (a->hub == b->hub) {
      Dist d = Dist{a->dist} + b->dist;
      if (d < best) {
        if (a->dist == kHlDistOverflow || b->dist == kHlDistOverflow) {
          d = out.DistAt(out.first[s] + (a - a_begin)) +
              in.DistAt(in.first[t] + (b - b_begin));
        }
        if (d < best) {
          best = d;
          *best_rank = a->hub;
        }
      }
      ++a;
      ++b;
    } else if (a->hub < b->hub) {
      ++a;
    } else {
      ++b;
    }
  }
  return best;
}

/// Appends one label entry at the table's next CSR position.
void AppendLabel(HlLabelTable* table, Rank hub, NodeId parent, Dist dist) {
  if (dist >= kHlDistOverflow) {
    table->overflow.push_back({table->hot.size(), dist});
    table->hot.push_back({hub, kHlDistOverflow});
  } else {
    table->hot.push_back({hub, static_cast<std::uint32_t>(dist)});
  }
  table->parent.push_back(parent);
}

std::size_t TableBytes(const HlLabelTable& table) {
  return table.first.size() * sizeof(std::uint64_t) +
         table.hot.size() * sizeof(HlEntry) +
         table.parent.size() * sizeof(NodeId) +
         table.overflow.size() * sizeof(HlOverflow);
}

/// Load-time validation: the image is outside input, and every check below
/// guards an index the query paths would otherwise read out of bounds.
void Require(bool ok, const char* check) {
  if (!ok) throw std::runtime_error(std::string("HlIndex::Load: ") + check);
}

void ValidateTable(const HlLabelTable& table, std::size_t n) {
  Require(table.first.size() == n + 1, "offset table size != n + 1");
  Require(table.first.front() == 0, "offsets do not start at 0");
  for (std::size_t v = 0; v < n; ++v) {
    Require(table.first[v] <= table.first[v + 1], "offsets not monotone");
  }
  Require(table.first[n] == table.hot.size(),
          "offsets do not end at the label count");
  Require(table.parent.size() == table.hot.size(),
          "parent count != label count");
  std::size_t sentinels = 0;
  for (std::size_t v = 0; v < n; ++v) {
    for (std::uint64_t i = table.first[v]; i < table.first[v + 1]; ++i) {
      Require(table.hot[i].hub < n, "hub rank out of range");
      Require(i == table.first[v] || table.hot[i - 1].hub < table.hot[i].hub,
              "hub ranks not strictly ascending within a label");
      Require(table.parent[i] < n || table.parent[i] == kInvalidNode,
              "parent out of range");
      if (table.hot[i].dist == kHlDistOverflow) ++sentinels;
    }
  }
  // A simple path has at most n - 1 arcs of weight < kMaxWeight, which also
  // keeps the sum of two label distances from wrapping.
  const Dist max_dist = static_cast<Dist>(n) * kMaxWeight;
  for (std::size_t k = 0; k < table.overflow.size(); ++k) {
    const HlOverflow& o = table.overflow[k];
    Require(k == 0 || table.overflow[k - 1].pos < o.pos,
            "overflow entries not sorted");
    Require(o.pos < table.hot.size(), "overflow position out of range");
    Require(table.hot[o.pos].dist == kHlDistOverflow,
            "overflow entry points at a non-sentinel label");
    Require(o.dist >= kHlDistOverflow && o.dist <= max_dist,
            "overflow distance out of range");
  }
  Require(table.overflow.size() == sentinels,
          "sentinel label without an overflow entry");
}

HlLabelTable ReadV1Table(BinaryReader& r) {
  HlLabelTable table;
  table.first = r.Vector<std::uint64_t>();
  const std::vector<BuildLabel> labels = r.Vector<BuildLabel>();
  table.hot.reserve(labels.size());
  table.parent.reserve(labels.size());
  for (const BuildLabel& l : labels) {
    AppendLabel(&table, l.hub, l.parent, l.dist);
  }
  return table;
}

HlLabelTable ReadV2Table(BinaryReader& r) {
  HlLabelTable table;
  table.first = r.Vector<std::uint64_t>();
  table.hot = r.Vector<HlEntry>();
  table.parent = r.Vector<NodeId>();
  table.overflow = r.Vector<HlOverflow>();
  return table;
}

void WriteTable(BinaryWriter& w, const HlLabelTable& table) {
  w.Vector(table.first);
  w.Vector(table.hot);
  w.Vector(table.parent);
  w.Vector(table.overflow);
}

}  // namespace

Dist HlLabelTable::OverflowDist(std::uint64_t pos) const {
  const auto it = std::lower_bound(
      overflow.begin(), overflow.end(), pos,
      [](const HlOverflow& o, std::uint64_t p) { return o.pos < p; });
  return it->dist;  // Build and Load give every sentinel slot its entry.
}

HlIndex HlIndex::Build(const Graph& g) {
  Timer timer;
  ContractionEngine engine(g.NumNodes(), ArcsOf(g));
  std::vector<Rank> rank = ContractAllGreedy(engine);
  HlIndex index = Derive(engine, std::move(rank));
  index.build_stats_.seconds = timer.Seconds();
  return index;
}

HlIndex HlIndex::RebuildWithFrozenOrder(const Graph& g,
                                        const HlIndex& previous) {
  Timer timer;
  const std::size_t n = g.NumNodes();
  if (n != previous.NumNodes()) {
    throw std::invalid_argument(
        "HlIndex::RebuildWithFrozenOrder: node count changed");
  }
  // Least important first: hub rank n - 1 is contracted as CH rank 0.
  ContractionEngine engine(n, ArcsOf(g));
  std::vector<Rank> rank(n);
  for (Rank r = 0; r < n; ++r) {
    const NodeId v = previous.hub_of_rank_[n - 1 - r];
    engine.Contract(v);
    rank[v] = r;
  }
  HlIndex index = Derive(engine, std::move(rank));
  index.build_stats_.seconds = timer.Seconds();
  return index;
}

HlIndex HlIndex::Derive(const ContractionEngine& contracted,
                        std::vector<Rank> rank) {
  const std::size_t n = rank.size();
  HlIndex index;
  std::vector<Rank> hub_rank(n);
  index.hub_of_rank_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    hub_rank[v] = static_cast<Rank>(n - 1 - rank[v]);
    index.hub_of_rank_[hub_rank[v]] = v;
  }
  const SearchGraph hierarchy(n, contracted.EmittedArcs(), std::move(rank));

  // Heavy arcs by (tail, head). A heavy arc's halves may be heavy too, so
  // the hop lookups descend through them to an arc `hierarchy` stores.
  std::vector<HeavyArc> heavy = contracted.HeavyArcs();
  const auto key = [](const HeavyArc& a) { return std::pair{a.tail, a.head}; };
  std::ranges::sort(heavy, {}, key);
  const auto heavy_mid = [&](NodeId u, NodeId v) {
    const auto it = std::ranges::lower_bound(heavy, std::pair{u, v}, {}, key);
    return it != heavy.end() && key(*it) == std::pair{u, v} ? it->mid
                                                            : kInvalidNode;
  };
  std::vector<NodeId> path;
  const auto first_hop = [&](NodeId u, NodeId v) {
    for (NodeId m; (m = heavy_mid(u, v)) != kInvalidNode;) v = m;
    path.clear();
    hierarchy.AppendUnpacked(u, v, &path);
    return path.front();
  };
  const auto last_hop = [&](NodeId u, NodeId v) {
    for (NodeId m; (m = heavy_mid(u, v)) != kInvalidNode;) u = m;
    path.assign(1, u);
    hierarchy.AppendUnpacked(u, v, &path);
    return path[path.size() - 2];
  };
  std::vector<std::vector<UpStep>> heavy_out(n), heavy_in(n);
  for (const HeavyArc& a : heavy) {
    if (hub_rank[a.head] < hub_rank[a.tail]) {
      heavy_out[a.tail].push_back(
          {hub_rank[a.head], a.weight, first_hop(a.tail, a.head)});
    } else {
      heavy_in[a.head].push_back(
          {hub_rank[a.tail], a.weight, last_hop(a.tail, a.head)});
    }
  }

  // From the top rank down: every upward neighbour is labeled before v.
  SweepLabels out, in;
  SweepScratch scratch(n);
  std::vector<UpStep> up;
  for (Rank r = 0; r < n; ++r) {
    const NodeId v = index.hub_of_rank_[r];
    up = heavy_out[v];
    for (const UpArc& a : hierarchy.UpOut(v)) {
      up.push_back({hub_rank[a.node], a.weight, first_hop(v, a.node)});
    }
    SweepRank(r, up, in, scratch, &out);
    up = heavy_in[v];
    for (const UpArc& a : hierarchy.UpIn(v)) {
      up.push_back({hub_rank[a.node], a.weight, last_hop(a.node, v)});
    }
    SweepRank(r, up, out, scratch, &in);
  }

  // Flatten into the query-time tables, in node-id CSR order.
  for (const auto& [labels, table] :
       {std::pair{&in, &index.in_}, std::pair{&out, &index.out_}}) {
    table->first.resize(n + 1);
    for (NodeId v = 0; v < n; ++v) {
      table->first[v] = table->hot.size();
      for (const BuildLabel& l : labels->Of(hub_rank[v])) {
        AppendLabel(table, l.hub, l.parent, l.dist);
      }
    }
    table->first[n] = table->hot.size();
  }
  index.build_stats_.in_labels = index.in_.hot.size();
  index.build_stats_.out_labels = index.out_.hot.size();
  return index;
}

Dist HlIndex::Distance(NodeId s, NodeId t) const {
  if (s == t) return 0;
  Rank best_rank = 0;
  return MergeJoin(out_, s, in_, t, &best_rank);
}

PathResult HlIndex::Path(NodeId s, NodeId t) const {
  PathResult result;
  if (s == t) {
    result.nodes = {s};
    result.length = 0;
    return result;
  }
  Rank best_rank = 0;
  const Dist best = MergeJoin(out_, s, in_, t, &best_rank);
  if (best == kInfDist) return result;

  const NodeId hub = hub_of_rank_[best_rank];
  // Forward leg s → hub: every parent lies on a shortest path to the hub and
  // carries an out-label for it, each hop one binary search.
  result.nodes.push_back(s);
  NodeId u = s;
  for (std::size_t guard = 0; u != hub; ++guard) {
    u = ParentOf(out_, u, best_rank);
    if (u == kInvalidNode || guard > NumNodes()) {
      return PathResult{};  // corrupt index; never hit by a built/loaded one
    }
    result.nodes.push_back(u);
  }
  // Backward leg hub → t, walked from t up the in-label parents.
  std::vector<NodeId> tail;
  u = t;
  for (std::size_t guard = 0; u != hub; ++guard) {
    tail.push_back(u);
    u = ParentOf(in_, u, best_rank);
    if (u == kInvalidNode || guard > NumNodes()) return PathResult{};
  }
  result.nodes.insert(result.nodes.end(), tail.rbegin(), tail.rend());
  result.length = best;
  return result;
}

std::size_t HlIndex::SizeBytes() const {
  return hub_of_rank_.size() * sizeof(NodeId) + TableBytes(in_) +
         TableBytes(out_);
}

void HlIndex::Save(std::ostream& out) const {
  BinaryWriter w(out);
  w.Magic("AHHL", 2);
  w.Vector(hub_of_rank_);
  WriteTable(w, in_);
  WriteTable(w, out_);
  w.Pod(build_stats_.seconds);
  // Two retired build-statistics slots, kept for the v2 byte layout.
  w.Pod<std::uint64_t>(0);
  w.Pod<std::uint64_t>(0);
}

HlIndex HlIndex::Load(std::istream& in) {
  BinaryReader r(in);
  const std::uint8_t version = r.Magic("AHHL", 2);
  Require(version >= 1, "unsupported version");
  HlIndex index;
  index.hub_of_rank_ = r.Vector<NodeId>();
  if (version == 1) {
    index.in_ = ReadV1Table(r);
    index.out_ = ReadV1Table(r);
  } else {
    index.in_ = ReadV2Table(r);
    index.out_ = ReadV2Table(r);
  }
  index.build_stats_.seconds = r.Pod<double>();
  r.Pod<std::uint64_t>();  // The two retired build-statistics slots.
  r.Pod<std::uint64_t>();
  index.build_stats_.in_labels = index.in_.hot.size();
  index.build_stats_.out_labels = index.out_.hot.size();

  const std::size_t n = index.hub_of_rank_.size();
  std::vector<bool> seen(n, false);
  for (const NodeId v : index.hub_of_rank_) {
    Require(v < n && !seen[v], "hub order is not a permutation");
    seen[v] = true;
  }
  ValidateTable(index.in_, n);
  ValidateTable(index.out_, n);
  return index;
}

}  // namespace ah
