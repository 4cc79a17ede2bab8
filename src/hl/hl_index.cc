#include "hl/hl_index.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "hier/contraction.h"
#include "hier/greedy_order.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace ah {

namespace {

/// Hubs are processed in fixed rounds of this many: searches within one
/// round prune only against labels committed before the round, so the label
/// set depends on this constant partition — never on the thread count or on
/// scheduling. 32 keeps every worker busy at the WorkerThreads() cap of 16
/// while bounding how many hubs skip pruning against each other.
constexpr std::size_t kHubRound = 32;

/// A committed label during the build: the interleaved form the pruning
/// merge joins read, flattened into an HlLabelTable at the end. "AHHL" v1
/// images stored their labels in exactly this 16-byte form.
struct BuildLabel {
  Rank hub;
  NodeId parent;
  Dist dist;
};

/// One surviving (non-pruned) settle of a hub search, in settle order —
/// parents always precede children.
struct DeltaEntry {
  NodeId node;
  NodeId parent;
  Dist dist;
};

struct HubDelta {
  std::vector<DeltaEntry> in;   // forward search: hub → node
  std::vector<DeltaEntry> out;  // backward search: node → hub
};

/// Walks the concatenation of a node's committed label array and its staged
/// labels from earlier hubs of the current round. Staged ranks are strictly
/// larger than every committed rank, so the concatenation stays sorted.
struct LabelCursor {
  std::span<const BuildLabel> a, b;
  std::size_t i = 0;
  bool AtEnd() const { return i >= a.size() + b.size(); }
  const BuildLabel& Cur() const {
    return i < a.size() ? a[i] : b[i - a.size()];
  }
  void Next() { ++i; }
};

/// The 2-hop query: min over common hubs of dout + din.
Dist MergeJoinUB(LabelCursor x, LabelCursor y) {
  Dist best = kInfDist;
  while (!x.AtEnd() && !y.AtEnd()) {
    const Rank rx = x.Cur().hub;
    const Rank ry = y.Cur().hub;
    if (rx == ry) {
      best = std::min(best, x.Cur().dist + y.Cur().dist);
      x.Next();
      y.Next();
    } else if (rx < ry) {
      x.Next();
    } else {
      y.Next();
    }
  }
  return best;
}

/// Per-worker pruned Dijkstra scratch: timestamped labels + lazy-deletion
/// heap, reused across every hub the worker runs.
class PrunedSearch {
 public:
  explicit PrunedSearch(std::size_t n)
      : dist_(n, 0), parent_(n, kInvalidNode), stamp_(n, 0) {}

  /// Pruned search from `hub` over out-arcs (forward) or in-arcs
  /// (backward). A node settled at distance d with covered(v, d) true is
  /// pruned: recorded nowhere and never relaxed from — so every surviving
  /// node's whole parent chain also survives (only labeled nodes relax).
  template <typename CoveredFn>
  void Run(const Graph& g, NodeId hub, bool forward, CoveredFn&& covered,
           std::vector<DeltaEntry>* delta) {
    ++round_;
    dist_[hub] = 0;
    parent_[hub] = kInvalidNode;
    stamp_[hub] = round_;
    heap_.push({0, hub});
    while (!heap_.empty()) {
      const auto [d, v] = heap_.top();
      heap_.pop();
      if (d != dist_[v] || stamp_[v] != round_) continue;  // stale entry
      if (v != hub && covered(v, d)) continue;  // pruned: no label, no relax
      delta->push_back({v, parent_[v], d});
      for (const Arc& a : forward ? g.OutArcs(v) : g.InArcs(v)) {
        const Dist nd = d + a.weight;
        if (stamp_[a.head] != round_ || nd < dist_[a.head]) {
          stamp_[a.head] = round_;
          dist_[a.head] = nd;
          parent_[a.head] = v;
          heap_.push({nd, a.head});
        }
      }
    }
  }

 private:
  std::priority_queue<std::pair<Dist, NodeId>,
                      std::vector<std::pair<Dist, NodeId>>,
                      std::greater<>>
      heap_;
  std::vector<Dist> dist_;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t round_ = 0;
};

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

HlIndex HlIndex::Build(const Graph& g, const HlParams& params) {
  Timer timer;
  const std::size_t n = g.NumNodes();

  // Hub order: importance-descending = the reverse of the greedy
  // contraction order CH builds its hierarchy from (last contracted = most
  // important = rank 0).
  std::vector<NodeId> hub_of_rank;
  {
    ContractionEngine engine(n, ArcsOf(g), ContractionParams{});
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), 0);
    const std::vector<NodeId> order =
        ContractGreedySubset(engine, all, GreedyOrderParams{});
    hub_of_rank.assign(order.rbegin(), order.rend());
  }

  HlIndex index = BuildWithHubOrder(g, std::move(hub_of_rank), params);
  index.build_stats_.seconds = timer.Seconds();
  return index;
}

HlIndex HlIndex::RebuildWithFrozenOrder(const Graph& g, const HlIndex& previous,
                                        const HlParams& params) {
  Timer timer;
  if (g.NumNodes() != previous.NumNodes()) {
    throw std::invalid_argument(
        "HlIndex::RebuildWithFrozenOrder: node count changed");
  }
  HlIndex index = BuildWithHubOrder(g, previous.hub_of_rank_, params);
  index.build_stats_.seconds = timer.Seconds();
  return index;
}

HlIndex HlIndex::BuildWithHubOrder(const Graph& g,
                                   std::vector<NodeId> hub_of_rank,
                                   const HlParams& params) {
  HlIndex index;
  const std::size_t n = g.NumNodes();
  index.hub_of_rank_ = std::move(hub_of_rank);

  const std::size_t threads =
      params.build_threads == 0 ? WorkerThreads() : params.build_threads;
  const std::size_t window = std::max<std::size_t>(2, 2 * threads);

  // Committed labels (every rank before the current round): the only thing
  // in-flight searches read. Staged labels: this round's commits, written
  // and read exclusively by the serial committer, published at the round
  // barrier — so commits never race the searches.
  std::vector<std::vector<BuildLabel>> in_committed(n), out_committed(n);
  std::vector<std::vector<BuildLabel>> in_staged(n), out_staged(n);
  std::vector<NodeId> touched_in, touched_out;

  std::vector<std::unique_ptr<PrunedSearch>> scratch(
      std::max<std::size_t>(1, std::min(threads, kHubRound)));
  std::vector<HubDelta> slots(std::max<std::size_t>(
      1, std::min(window, std::min(kHubRound, std::max<std::size_t>(1, n)))));

  // Commit-time scratch: marks which nodes of the current delta survived,
  // so dropping a covered node drops its whole subtree with it (path
  // recovery walks parent chains — a kept child may never point at a
  // dropped parent).
  std::vector<std::uint32_t> kept_stamp(n, 0);
  std::uint32_t commit_round = 0;
  std::size_t max_live = 0;

  for (std::size_t round_start = 0; round_start < n;
       round_start += kHubRound) {
    const std::size_t round_size = std::min(kHubRound, n - round_start);

    const WindowedChunkStats round_stats = ParallelChunksWindowed(
        round_size, 1, window,
        [&](std::size_t c, std::size_t, std::size_t, std::size_t tid) {
          if (!scratch[tid]) scratch[tid] = std::make_unique<PrunedSearch>(n);
          const Rank r = static_cast<Rank>(round_start + c);
          const NodeId hub = index.hub_of_rank_[r];
          HubDelta& delta = slots[c % slots.size()];
          delta.in.clear();
          delta.out.clear();
          scratch[tid]->Run(
              g, hub, /*forward=*/true,
              [&](NodeId v, Dist d) {
                return MergeJoinUB(LabelCursor{out_committed[hub], {}},
                                   LabelCursor{in_committed[v], {}}) <= d;
              },
              &delta.in);
          scratch[tid]->Run(
              g, hub, /*forward=*/false,
              [&](NodeId v, Dist d) {
                return MergeJoinUB(LabelCursor{out_committed[v], {}},
                                   LabelCursor{in_committed[hub], {}}) <= d;
              },
              &delta.out);
        },
        [&](std::size_t c, std::size_t, std::size_t) {
          // Serial commit in hub-rank order. Each entry is re-pruned
          // against everything committed so far — including earlier hubs
          // of this round, which the searches could not see — and covered
          // subtrees are dropped whole (the cascade keeps parent chains
          // intact, and coverage by a higher-ranked hub makes the subtree's
          // labels redundant by the standard pruning argument).
          const Rank r = static_cast<Rank>(round_start + c);
          const NodeId hub = index.hub_of_rank_[r];
          HubDelta& delta = slots[c % slots.size()];
          ++commit_round;
          for (const DeltaEntry& e : delta.in) {
            const bool root = e.node == hub;
            if (!root && kept_stamp[e.parent] != commit_round) continue;
            if (!root &&
                MergeJoinUB(
                    LabelCursor{out_committed[hub], out_staged[hub]},
                    LabelCursor{in_committed[e.node], in_staged[e.node]}) <=
                    e.dist) {
              continue;
            }
            kept_stamp[e.node] = commit_round;
            if (in_staged[e.node].empty()) touched_in.push_back(e.node);
            in_staged[e.node].push_back(BuildLabel{r, e.parent, e.dist});
          }
          ++commit_round;
          for (const DeltaEntry& e : delta.out) {
            const bool root = e.node == hub;
            if (!root && kept_stamp[e.parent] != commit_round) continue;
            if (!root &&
                MergeJoinUB(
                    LabelCursor{out_committed[e.node], out_staged[e.node]},
                    LabelCursor{in_committed[hub], in_staged[hub]}) <=
                    e.dist) {
              continue;
            }
            kept_stamp[e.node] = commit_round;
            if (out_staged[e.node].empty()) touched_out.push_back(e.node);
            out_staged[e.node].push_back(BuildLabel{r, e.parent, e.dist});
          }
        },
        threads);
    max_live = std::max(max_live, round_stats.max_live_chunks);

    // Round barrier: publish the staged labels so the next round's searches
    // prune against them. Ranks only grow, so appending keeps the arrays
    // sorted by hub rank.
    for (const NodeId v : touched_in) {
      in_committed[v].insert(in_committed[v].end(), in_staged[v].begin(),
                             in_staged[v].end());
      in_staged[v].clear();
    }
    touched_in.clear();
    for (const NodeId v : touched_out) {
      out_committed[v].insert(out_committed[v].end(), out_staged[v].begin(),
                              out_staged[v].end());
      out_staged[v].clear();
    }
    touched_out.clear();
  }

  // Flatten the per-node vectors into the query-time hot/cold tables.
  const auto flatten = [n](const std::vector<std::vector<BuildLabel>>& labels,
                           HlLabelTable* table) {
    std::size_t total = 0;
    for (const std::vector<BuildLabel>& l : labels) total += l.size();
    table->first.assign(n + 1, 0);
    table->hot.reserve(total);
    table->parent.reserve(total);
    for (NodeId v = 0; v < n; ++v) {
      table->first[v] = table->hot.size();
      for (const BuildLabel& l : labels[v]) {
        AppendLabel(table, l.hub, l.parent, l.dist);
      }
    }
    table->first[n] = table->hot.size();
  };
  flatten(in_committed, &index.in_);
  flatten(out_committed, &index.out_);

  index.build_stats_.in_labels = index.in_.hot.size();
  index.build_stats_.out_labels = index.out_.hot.size();
  index.build_stats_.max_live_label_buffers = max_live;
  index.build_stats_.label_window = window;
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
  // Forward leg s → hub: every chain node carries an out-label for the hub
  // (pruned nodes are never relaxed from), each hop one binary search.
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
  w.Pod<std::uint64_t>(build_stats_.max_live_label_buffers);
  w.Pod<std::uint64_t>(build_stats_.label_window);
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
  index.build_stats_.max_live_label_buffers = r.Pod<std::uint64_t>();
  index.build_stats_.label_window = r.Pod<std::uint64_t>();
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
