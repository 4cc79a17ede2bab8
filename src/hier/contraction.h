// Node-contraction machinery shared by CH, FC and AH.
//
// Contracting a node v removes it from the active graph and, for every pair
// of an active in-neighbor u and out-neighbor w, adds the shortcut u→w with
// weight w(u,v)+w(v,w) unless a *witness* path of no greater length survives
// in the remaining graph. Every shortcut remembers v as its midpoint, so it
// expands into the two-hop path ⟨u, v, w⟩ — exactly the shortcut
// representation §4.1 of the paper prescribes for O(k) path unpacking.
//
// The engine is order-agnostic: AH contracts in its arterial-level rank
// order, CH in greedy edge-difference order, and the AH level assigner uses
// it to reduce G'_i to an overlay on the surviving cores (distances between
// active nodes are preserved exactly by construction).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "hier/witness_certs.h"
#include "util/indexed_heap.h"
#include "util/types.h"

namespace ah {

/// One arc of a hierarchy under construction. mid == kInvalidNode means an
/// original graph edge; otherwise the arc is a shortcut that expands into
/// tail→mid→head.
struct HierArc {
  NodeId tail = kInvalidNode;
  NodeId head = kInvalidNode;
  Weight weight = 0;
  NodeId mid = kInvalidNode;
};

/// A hierarchy arc whose weight does not fit a Weight: a shortcut over a
/// path longer than kMaxWeight - 1, which only graphs with near-maximal arc
/// weights produce. The engine keeps such arcs, so its hierarchy preserves
/// every distance; SearchGraph has no room for them, so CH and AH queries
/// never see them. The hub-label derive (hl/hl_index.h) reads them.
struct HeavyArc {
  NodeId tail = kInvalidNode;
  NodeId head = kInvalidNode;
  Dist weight = 0;
  NodeId mid = kInvalidNode;
};

struct ContractionParams {
  /// Budget of settled nodes per witness search. When the budget runs out
  /// the search is inconclusive and the shortcut is added anyway (safe: it
  /// is only redundant, never wrong).
  std::size_t witness_settle_limit = 80;
  /// Prefilter witness targets with a heap-free hop-bounded check over the
  /// current overlay (paths of up to three arcs from u, avoiding the
  /// contracted node) before the Dijkstra search. Any witness the
  /// prefilter finds would also be found by the search, so add/prune
  /// decisions are bit-identical either way; the search just starts with
  /// fewer targets and a tighter bound. Meant for frozen-order repair,
  /// where most candidates are hinted and the unhinted rest usually have
  /// shallow witnesses.
  bool witness_prefilter = false;
};

/// Extracts the arc list of a Graph as HierArcs (mid = invalid).
std::vector<HierArc> ArcsOf(const Graph& g);

class ContractionEngine {
 public:
  /// Starts with `arcs` over node ids in [0, n). Parallel arcs collapse to
  /// the minimum weight.
  ContractionEngine(std::size_t n, const std::vector<HierArc>& arcs,
                    ContractionParams params = {});

  std::size_t NumNodes() const { return out_.size(); }
  bool IsContracted(NodeId v) const { return contracted_[v]; }
  std::size_t NumContracted() const { return num_contracted_; }

  std::size_t CurrentOutDegree(NodeId v) const { return out_[v].size(); }
  std::size_t CurrentInDegree(NodeId v) const { return in_[v].size(); }
  /// Number of formerly adjacent nodes that have been contracted — the
  /// standard CH tie-breaker that spreads contraction evenly.
  std::size_t ContractedNeighborCount(NodeId v) const {
    return contracted_neighbors_[v];
  }

  /// Contracts v: emits v's incident arcs (their weights are final) into the
  /// emitted list and inserts witness-checked shortcuts between v's active
  /// neighbors. Returns the number of shortcuts added or improved.
  std::size_t Contract(NodeId v);

  /// Counts the shortcuts Contract(v) would add, without mutating anything.
  std::size_t SimulateContraction(NodeId v);

  /// Arcs currently connecting active (uncontracted) nodes, heavy arcs
  /// left out. After a partial contraction this is the overlay on the
  /// survivors; it preserves every distance below kMaxWeight.
  std::vector<HierArc> RemainingArcs() const;

  /// Arcs emitted so far; each arc of the final hierarchy appears exactly
  /// once (when its first endpoint is contracted), with its final weight and
  /// midpoint — in EmittedArcs if its weight fits a Weight, else in
  /// HeavyArcs. Contract every node and the two are the whole hierarchy.
  const std::vector<HierArc>& EmittedArcs() const { return emitted_; }
  const std::vector<HeavyArc>& HeavyArcs() const { return heavy_; }

  std::size_t NumShortcutsAdded() const { return shortcuts_added_; }

  /// Witness searches run and nodes settled across them — the dominant cost
  /// of contraction; frozen-order repair exists to shrink these.
  std::size_t NumWitnessSearches() const { return witness_searches_; }
  std::size_t NumWitnessSettled() const { return witness_settled_; }

  /// Directs witness-certificate recording at `sink` (see
  /// hier/witness_certs.h): every candidate pair a witness *search* prunes
  /// is recorded as a replayable path for later frozen-order repairs.
  /// Prefilter prunes carry no parent chain and are not recorded — the
  /// prefilter itself re-proves them cheaply. The caller owns the sink,
  /// must keep it alive across Contract calls, and finalizes it when
  /// contraction is done. Pass nullptr to stop recording.
  void RecordWitnessCerts(WitnessCertTable* sink) { cert_sink_ = sink; }

 private:
  // Weights are Dist: a shortcut may outgrow a Weight (see HeavyArc).
  struct OutArcRec {
    NodeId head;
    NodeId mid;
    Dist weight;
  };
  struct InArcRec {
    NodeId tail;
    NodeId mid;
    Dist weight;
  };

  // Inserts or improves u→w; updates both adjacency mirrors.
  bool AddOrImprove(NodeId u, NodeId w, Dist weight, NodeId mid);

  // Appends an arc of final weight to emitted_ or, if it is heavy, heavy_.
  void Emit(NodeId tail, NodeId head, Dist weight, NodeId mid);

  // Shortest u→targets distance check in the active graph minus `excluded`,
  // against the targets_ list (stamped with target_round_) the caller
  // filled. Fills witness_dist_ labels; a target's label may stay kInfDist.
  // Consumes targets_: resolved targets are removed as the search runs.
  void RunWitnessSearch(NodeId u, NodeId excluded);

  // Records the witness path that pruned pair u→w at v's contraction into
  // cert_sink_, by walking the parent chain the witness search laid down.
  // Bails out (recording nothing) if w's label did not come from the
  // current search round — e.g. the prefilter resolved everything.
  void RecordPruneCert(NodeId v, NodeId u, NodeId w);

  // Prefilter companion of RunWitnessSearch: resolves targets_ that some
  // overlay path of at most three arcs from u (avoiding `excluded`)
  // already proves a witness for, marking their cand_ entry pruned and
  // dropping them from targets_. Unresolved targets stay for the Dijkstra
  // search.
  void RunWitnessPrefilter(NodeId u, NodeId excluded);

  Dist WitnessDist(NodeId v) const {
    return witness_stamp_[v] == witness_round_ ? witness_dist_[v] : kInfDist;
  }

  // Per-in-neighbor candidate scratch: head, via weight, and whether the
  // prefilter already proved a witness (computed once, used twice).
  struct CandRec {
    NodeId w;
    Dist via;
    bool pruned;
  };
  // A witness-search target: an unhinted candidate head and its via weight,
  // resolved either by settling (label final) or by the frontier passing
  // its via (label provably larger). cand_index points back at the CandRec
  // so the prefilter can record its verdict.
  struct Target {
    NodeId w;
    Dist via;
    std::uint32_t cand_index;
  };

  ContractionParams params_;
  std::vector<std::vector<OutArcRec>> out_;
  std::vector<std::vector<InArcRec>> in_;
  std::vector<bool> contracted_;
  std::vector<std::uint32_t> contracted_neighbors_;
  std::vector<HierArc> emitted_;
  std::vector<HeavyArc> heavy_;
  std::size_t num_contracted_ = 0;
  std::size_t shortcuts_added_ = 0;
  std::size_t witness_searches_ = 0;
  std::size_t witness_settled_ = 0;

  // Reusable witness-search state.
  IndexedHeap witness_heap_;
  std::vector<Dist> witness_dist_;
  std::vector<std::uint32_t> witness_stamp_;
  std::uint32_t witness_round_ = 0;
  // Parent chain of the latest search round, for certificate recording.
  // Stamped separately from the labels: prefilter labels have no parents.
  std::vector<NodeId> witness_parent_;
  std::vector<std::uint32_t> witness_parent_stamp_;
  WitnessCertTable* cert_sink_ = nullptr;
  std::vector<NodeId> cert_path_;
  std::vector<CandRec> cand_;
  std::vector<NodeId> ring_;  // Prefilter scratch: u's labelled neighbors.
  std::vector<Target> targets_;
  std::vector<std::uint32_t> target_stamp_;
  std::uint32_t target_round_ = 0;
};

/// Contracts the given nodes, in order, and returns the overlay arcs among
/// the untouched nodes. Distances between untouched nodes are preserved.
std::vector<HierArc> ContractNodes(std::size_t n,
                                   const std::vector<HierArc>& arcs,
                                   const std::vector<NodeId>& order,
                                   ContractionParams params = {});

}  // namespace ah
