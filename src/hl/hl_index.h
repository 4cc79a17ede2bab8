// 2-hop hub labeling (pruned landmark labeling; Akiba et al., SIGMOD'13 —
// see PAPERS.md): the post-paper point of comparison that pushes exact
// distance queries below every hierarchy-traversal method in this repo.
//
// Every node v carries two flat label arrays sorted by hub rank:
//   Lout(v) = { (h, d(v→h)) }   and   Lin(v) = { (h, d(h→v)) }.
// A distance query is a single merge join over Lout(s) and Lin(t): min over
// common hubs of the two label distances — no heap, no graph traversal,
// O(|Lout|+|Lin|) array scans.
//
// The labels are the canonical labels of the CH order (hub rank 0 = the last
// contracted node): h is in Lout(v) iff h ranks highest on every shortest
// v→h path — exactly what pruned landmark labeling in that order keeps. They
// are derived from the CH search graph in one top-down sweep instead of one
// pruned Dijkstra per hub (Abraham et al., "Hierarchical hub labelings for
// shortest paths", ESA'12): each canonical hub of v is reached by an upward
// CH path of exact length, so v's out-label candidates are (v, 0) plus its
// upward neighbours' out-labels, each plus the arc weight, min-merged per
// hub. Walked in ascending hub rank, a candidate (h, d) is kept unless an
// entry (x, dx) already kept for v and Lin(h) give dx + Lin(h)[x] <= d —
// PLL's pruning test. In-labels are the mirror image over the upward
// in-arcs. The sweep also reads the shortcuts too long for the search
// graph's 32-bit weights (HeavyArc), so labels stay exact past 2^32. Build
// contracts in CH's greedy order (ContractAllGreedy, as ChIndex::Build
// does); RebuildWithFrozenOrder contracts in the previous index's hub
// order. Neither keeps the hierarchy.
//
// Paths are native: each label entry also has the adjacent *parent* one hop
// toward (out-labels) or from (in-labels) the hub — the first (last)
// original-graph hop of the CH arc the entry came through. That node lies on
// a shortest path to the hub, so it carries the hub too, at the distance
// less the arc; the best hub's two legs unroll by parent-pointer walks with
// one binary search per hop — zero distance probes (asserted by the
// conformance suite).
//
// Storage layout. Each direction is one HlLabelTable: CSR offsets over
// nodes and, in that CSR order, a *hot* array of 8-byte (hub rank, 32-bit
// distance) entries — all a distance merge join or a matrix bucket reads —
// and a *cold* parent array read only by the Path walk. A label distance
// that does not fit 32 bits (possible since arc weights go up to
// kMaxWeight - 1) is stored as the sentinel kHlDistOverflow, a lower bound
// of the true value, with the exact distance in the table's overflow list
// sorted by CSR position; merge joins consult it only when the bound would
// improve their current best. Persisted as "AHHL" v2; Load also reads the
// v1 image (16-byte interleaved labels) and validates every image.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "routing/path.h"
#include "util/types.h"

namespace ah {

class ContractionEngine;

/// Hot-entry distance of a label whose exact distance is >= 2^32 - 1: a
/// lower bound of the exact value, which lives in HlLabelTable::overflow.
inline constexpr std::uint32_t kHlDistOverflow = 0xFFFFFFFFu;

/// One hot label entry. 8 bytes, no padding, trivially copyable (serialized
/// raw and compared by the determinism tests).
struct HlEntry {
  Rank hub;            ///< Hub rank; strictly ascending within one label.
  std::uint32_t dist;  ///< Label distance (v→hub for out, hub→v for in), or
                       ///< kHlDistOverflow.

  bool operator==(const HlEntry&) const = default;
};

/// The exact distance of the entry at CSR position `pos`, whose hot
/// distance is kHlDistOverflow.
struct HlOverflow {
  std::uint64_t pos;
  Dist dist;

  bool operator==(const HlOverflow&) const = default;
};

/// One direction's labels (every node's in-labels, or every node's
/// out-labels). `hot` and `parent` are parallel arrays in CSR order.
struct HlLabelTable {
  std::vector<std::uint64_t> first;  ///< CSR offsets, size n+1.
  std::vector<HlEntry> hot;
  /// Adjacent node one hop toward (out) / from (in) the hub; kInvalidNode
  /// on the hub's own label.
  std::vector<NodeId> parent;
  std::vector<HlOverflow> overflow;  ///< Sorted by pos.

  std::span<const HlEntry> Of(NodeId v) const {
    return {hot.data() + first[v], hot.data() + first[v + 1]};
  }

  /// Exact distance of the entry at CSR position `pos`.
  Dist DistAt(std::uint64_t pos) const {
    const std::uint32_t d = hot[pos].dist;
    return d != kHlDistOverflow ? d : OverflowDist(pos);
  }

  bool operator==(const HlLabelTable&) const = default;

 private:
  Dist OverflowDist(std::uint64_t pos) const;
};

struct HlBuildStats {
  double seconds = 0;
  std::size_t in_labels = 0;   ///< Total in-label entries.
  std::size_t out_labels = 0;  ///< Total out-label entries.
};

class HlIndex {
 public:
  /// Builds the full 2-hop labeling from CH's greedy hierarchy. `g` is only
  /// read during the build — unlike the other indexes, queries never touch
  /// the graph again.
  static HlIndex Build(const Graph& g);

  /// Weights-only rebuild: contracts `g` in `previous`'s frozen hub order,
  /// skipping the greedy ordering, and derives its labels. Canonical labels
  /// are exact for any hub order, so they answer queries on `g` exactly.
  /// `g` must have `previous`'s node count (weight deltas never change
  /// topology); throws std::invalid_argument otherwise.
  static HlIndex RebuildWithFrozenOrder(const Graph& g,
                                        const HlIndex& previous);

  std::size_t NumNodes() const { return hub_of_rank_.size(); }
  const HlBuildStats& build_stats() const { return build_stats_; }

  /// Exact distance via one merge join over Lout(s) and Lin(t).
  Dist Distance(NodeId s, NodeId t) const;

  /// Exact path by unrolling the best hub's parent chains; no distance
  /// probes. Empty nodes iff unreachable.
  PathResult Path(NodeId s, NodeId t) const;

  /// The label tables: read by the bucket-based DistanceMatrix, and exposed
  /// so tests can compare them with a reference pruned labeling.
  const HlLabelTable& in_table() const { return in_; }
  const HlLabelTable& out_table() const { return out_; }
  const std::vector<NodeId>& hub_of_rank() const { return hub_of_rank_; }

  std::size_t SizeBytes() const;

  /// Versioned persistence ("AHHL"): Save writes v2; Load reads v1 and v2
  /// and validates every table (offsets, hub ranks, parents, overflow
  /// entries), throwing std::runtime_error naming the failed check. Loaded
  /// indexes answer queries without any graph: the labels are
  /// self-contained.
  void Save(std::ostream& out) const;
  static HlIndex Load(std::istream& in);

 private:
  /// The top-down label sweep over a fully contracted hierarchy (`rank` is
  /// each node's contraction position) — the shared tail of Build and
  /// RebuildWithFrozenOrder. Sets every field except build_stats_.seconds,
  /// which the callers time themselves.
  static HlIndex Derive(const ContractionEngine& contracted,
                        std::vector<Rank> rank);

  std::vector<NodeId> hub_of_rank_;  // rank -> node id
  HlLabelTable in_;
  HlLabelTable out_;
  HlBuildStats build_stats_;
};

}  // namespace ah
