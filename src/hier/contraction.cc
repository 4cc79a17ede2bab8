#include "hier/contraction.h"

#include <algorithm>
#include <cassert>

namespace ah {

std::vector<HierArc> ArcsOf(const Graph& g) {
  std::vector<HierArc> arcs;
  arcs.reserve(g.NumArcs());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const Arc& a : g.OutArcs(v)) {
      arcs.push_back(HierArc{v, a.head, a.weight, kInvalidNode});
    }
  }
  return arcs;
}

ContractionEngine::ContractionEngine(std::size_t n,
                                     const std::vector<HierArc>& arcs,
                                     ContractionParams params)
    : params_(params),
      out_(n),
      in_(n),
      contracted_(n, false),
      contracted_neighbors_(n, 0),
      witness_heap_(n),
      witness_dist_(n, kInfDist),
      witness_stamp_(n, 0),
      witness_parent_(n, kInvalidNode),
      witness_parent_stamp_(n, 0),
      target_stamp_(n, 0) {
  for (const HierArc& a : arcs) {
    assert(a.tail < n && a.head < n);
    if (a.tail == a.head) continue;
    AddOrImprove(a.tail, a.head, a.weight, a.mid);
  }
  shortcuts_added_ = 0;  // Loading the initial arcs is not "adding shortcuts".
}

bool ContractionEngine::AddOrImprove(NodeId u, NodeId w, Dist weight,
                                     NodeId mid) {
  for (OutArcRec& rec : out_[u]) {
    if (rec.head != w) continue;
    if (rec.weight <= weight) return false;
    rec.weight = weight;
    rec.mid = mid;
    for (InArcRec& irec : in_[w]) {
      if (irec.tail == u) {
        irec.weight = weight;
        irec.mid = mid;
        break;
      }
    }
    ++shortcuts_added_;
    return true;
  }
  out_[u].push_back(OutArcRec{w, mid, weight});
  in_[w].push_back(InArcRec{u, mid, weight});
  ++shortcuts_added_;
  return true;
}

void ContractionEngine::Emit(NodeId tail, NodeId head, Dist weight,
                             NodeId mid) {
  if (weight < kMaxWeight) {
    emitted_.push_back(HierArc{tail, head, static_cast<Weight>(weight), mid});
  } else {
    heavy_.push_back(HeavyArc{tail, head, weight, mid});
  }
}

void ContractionEngine::RunWitnessSearch(NodeId u, NodeId excluded) {
  // Bound: the largest via among still-unresolved targets. It shrinks as
  // targets settle, and the search stops the moment the frontier distance
  // exceeds it — every unsettled target then has a tentative label >= the
  // frontier distance > its via, so its add decision is already final.
  // Decisions are therefore bit-identical to an exhaustive search to the
  // initial bound.
  Dist bound = 0;
  for (const Target& t : targets_) bound = std::max(bound, t.via);
  ++witness_round_;
  ++witness_searches_;
  witness_heap_.Clear();
  witness_stamp_[u] = witness_round_;
  witness_dist_[u] = 0;
  witness_parent_[u] = kInvalidNode;
  witness_parent_stamp_[u] = witness_round_;
  witness_heap_.PushOrDecrease(u, 0);
  std::size_t settled = 0;
  while (!witness_heap_.Empty()) {
    auto [d, x] = witness_heap_.PopMin();
    if (d > bound) break;
    if (++settled > params_.witness_settle_limit) break;
    ++witness_settled_;
    if (target_stamp_[x] == target_round_) {
      // x's label is final: resolve it and re-tighten the bound.
      for (std::size_t i = 0; i < targets_.size(); ++i) {
        if (targets_[i].w == x) {
          targets_[i] = targets_.back();
          targets_.pop_back();
          break;
        }
      }
      if (targets_.empty()) break;
      bound = 0;
      for (const Target& t : targets_) bound = std::max(bound, t.via);
      if (d > bound) break;
    }
    for (const OutArcRec& a : out_[x]) {
      // Active adjacency lists never point at contracted nodes (Contract
      // detaches them), so only the excluded node needs skipping.
      if (a.head == excluded) continue;
      const Dist nd = d + a.weight;
      if (nd > bound) continue;
      if (witness_stamp_[a.head] != witness_round_ ||
          nd < witness_dist_[a.head]) {
        witness_stamp_[a.head] = witness_round_;
        witness_dist_[a.head] = nd;
        witness_parent_[a.head] = x;
        witness_parent_stamp_[a.head] = witness_round_;
        witness_heap_.PushOrDecrease(a.head, nd);
      }
    }
  }
}

void ContractionEngine::RecordPruneCert(NodeId v, NodeId u, NodeId w) {
  // Walk w's parent chain back to u, collecting the interior nodes. Every
  // hop must be parent-stamped with the current search round; a label the
  // prefilter produced (or a stale chain from an earlier round) fails the
  // stamp check and simply records nothing — losing a certificate is
  // always safe, the pair just gets searched again next repair.
  cert_path_.clear();
  NodeId x = w;
  while (x != u) {
    if (witness_parent_stamp_[x] != witness_round_) return;
    x = witness_parent_[x];
    if (x == kInvalidNode) return;
    if (x == u) break;
    cert_path_.push_back(x);
    if (cert_path_.size() > params_.witness_settle_limit + 2) return;
  }
  std::reverse(cert_path_.begin(), cert_path_.end());
  cert_sink_->Record(v, u, w, cert_path_.data(), cert_path_.size());
}

void ContractionEngine::RunWitnessPrefilter(NodeId u, NodeId excluded) {
  ++witness_round_;
  // Label u's active out-neighbors with their one-arc distance.
  ring_.clear();
  for (const OutArcRec& a : out_[u]) {
    if (a.head == excluded) continue;
    witness_stamp_[a.head] = witness_round_;
    witness_dist_[a.head] = a.weight;
    ring_.push_back(a.head);
  }
  // A target is resolved when some labelled path (a real overlay path
  // avoiding `excluded` — anything the Dijkstra search would also find) is
  // no longer than its via. Pass 1 checks paths of up to two arcs: the
  // target's own label, or a labelled in-neighbor plus one arc.
  std::size_t kept = 0;
  for (const Target& t : targets_) {
    Dist best = WitnessDist(t.w);
    if (best > t.via) {
      for (const InArcRec& ja : in_[t.w]) {
        if (ja.tail == excluded) continue;
        if (witness_stamp_[ja.tail] == witness_round_) {
          best = std::min(best, witness_dist_[ja.tail] + ja.weight);
          if (best <= t.via) break;
        }
      }
    }
    if (best <= t.via) {
      cand_[t.cand_index].pruned = true;
    } else {
      targets_[kept++] = t;
    }
  }
  targets_.resize(kept);
  if (targets_.empty()) return;

  // Pass 2: push labels one more arc outward (labels now cover walks of up
  // to two arcs; they are path lengths, not necessarily shortest, which is
  // all pruning needs) and re-scan the survivors — covering witnesses of
  // up to three arcs.
  for (const NodeId z : ring_) {
    const Dist dz = witness_dist_[z];
    for (const OutArcRec& a : out_[z]) {
      if (a.head == excluded || a.head == u) continue;
      const Dist nd = dz + a.weight;
      if (witness_stamp_[a.head] != witness_round_ ||
          nd < witness_dist_[a.head]) {
        witness_stamp_[a.head] = witness_round_;
        witness_dist_[a.head] = nd;
      }
    }
  }
  kept = 0;
  for (const Target& t : targets_) {
    Dist best = WitnessDist(t.w);
    if (best > t.via) {
      for (const InArcRec& ja : in_[t.w]) {
        if (ja.tail == excluded) continue;
        if (witness_stamp_[ja.tail] == witness_round_) {
          best = std::min(best, witness_dist_[ja.tail] + ja.weight);
          if (best <= t.via) break;
        }
      }
    }
    if (best <= t.via) {
      cand_[t.cand_index].pruned = true;
    } else {
      targets_[kept++] = t;
    }
  }
  targets_.resize(kept);
}

std::size_t ContractionEngine::Contract(NodeId v) {
  assert(!contracted_[v]);

  std::size_t added = 0;
  // Witness-checked shortcuts between active neighbors of v. One witness
  // search per in-neighbor covers all out-neighbors; the heads are
  // registered as search targets so the witness search can stop the moment
  // all of them are settled — their labels are final then, so the
  // add/prune decisions are bit-identical to an exhaustive search.
  for (const InArcRec& ia : in_[v]) {
    const NodeId u = ia.tail;
    if (contracted_[u]) continue;  // Should not happen: lists stay clean.
    cand_.clear();
    targets_.clear();
    ++target_round_;
    for (const OutArcRec& oa : out_[v]) {
      const NodeId w = oa.head;
      if (contracted_[w] || w == u) continue;
      const Dist via = ia.weight + oa.weight;
      cand_.push_back(CandRec{w, via, false});
      target_stamp_[w] = target_round_;
      targets_.push_back(
          Target{w, via, static_cast<std::uint32_t>(cand_.size() - 1)});
    }
    if (!targets_.empty() && params_.witness_prefilter) {
      RunWitnessPrefilter(u, v);
    }
    if (!targets_.empty()) RunWitnessSearch(u, v);
    for (const CandRec& c : cand_) {
      if (c.pruned) continue;  // Prefilter proved a witness.
      if (WitnessDist(c.w) <= c.via) {  // Witness found.
        if (cert_sink_ != nullptr) RecordPruneCert(v, u, c.w);
        continue;
      }
      if (AddOrImprove(u, c.w, c.via, v)) ++added;
    }
  }

  // v's incident arcs have reached their final weights: emit them.
  for (const InArcRec& ia : in_[v]) Emit(ia.tail, v, ia.weight, ia.mid);
  for (const OutArcRec& oa : out_[v]) Emit(v, oa.head, oa.weight, oa.mid);

  // Detach v from its neighbors' adjacency.
  for (const InArcRec& ia : in_[v]) {
    auto& lst = out_[ia.tail];
    for (std::size_t i = 0; i < lst.size(); ++i) {
      if (lst[i].head == v) {
        lst[i] = lst.back();
        lst.pop_back();
        break;
      }
    }
    ++contracted_neighbors_[ia.tail];
  }
  for (const OutArcRec& oa : out_[v]) {
    auto& lst = in_[oa.head];
    for (std::size_t i = 0; i < lst.size(); ++i) {
      if (lst[i].tail == v) {
        lst[i] = lst.back();
        lst.pop_back();
        break;
      }
    }
    ++contracted_neighbors_[oa.head];
  }
  out_[v].clear();
  out_[v].shrink_to_fit();
  in_[v].clear();
  in_[v].shrink_to_fit();
  contracted_[v] = true;
  ++num_contracted_;
  return added;
}

std::size_t ContractionEngine::SimulateContraction(NodeId v) {
  assert(!contracted_[v]);
  std::size_t added = 0;
  for (const InArcRec& ia : in_[v]) {
    const NodeId u = ia.tail;
    targets_.clear();
    ++target_round_;
    for (const OutArcRec& oa : out_[v]) {
      if (oa.head == u) continue;
      target_stamp_[oa.head] = target_round_;
      targets_.push_back(
          Target{oa.head, ia.weight + oa.weight, 0});
    }
    if (targets_.empty()) continue;
    RunWitnessSearch(u, v);
    for (const OutArcRec& oa : out_[v]) {
      const NodeId w = oa.head;
      if (w == u) continue;
      const Dist via = ia.weight + oa.weight;
      if (WitnessDist(w) <= via) continue;
      // Would the shortcut actually change the graph?
      bool improves = true;
      for (const OutArcRec& existing : out_[u]) {
        if (existing.head == w && existing.weight <= via) {
          improves = false;
          break;
        }
      }
      if (improves) ++added;
    }
  }
  return added;
}

std::vector<HierArc> ContractionEngine::RemainingArcs() const {
  std::vector<HierArc> arcs;
  for (NodeId v = 0; v < out_.size(); ++v) {
    if (contracted_[v]) continue;
    for (const OutArcRec& a : out_[v]) {
      if (a.weight >= kMaxWeight) continue;  // Heavy.
      arcs.push_back(HierArc{v, a.head, static_cast<Weight>(a.weight), a.mid});
    }
  }
  return arcs;
}

std::vector<HierArc> ContractNodes(std::size_t n,
                                   const std::vector<HierArc>& arcs,
                                   const std::vector<NodeId>& order,
                                   ContractionParams params) {
  ContractionEngine engine(n, arcs, params);
  for (NodeId v : order) engine.Contract(v);
  return engine.RemainingArcs();
}

}  // namespace ah
