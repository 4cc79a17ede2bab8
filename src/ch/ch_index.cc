#include "ch/ch_index.h"

#include <stdexcept>

#include "hier/greedy_order.h"
#include "hier/repair_kernel.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace ah {

ChIndex ChIndex::Build(const Graph& g, const ChParams& params) {
  Timer timer;
  const std::size_t n = g.NumNodes();
  ContractionEngine engine(n, ArcsOf(g), params.contraction);
  auto certs = std::make_shared<WitnessCertTable>();
  engine.RecordWitnessCerts(certs.get());

  std::vector<Rank> rank = ContractAllGreedy(
      engine, {params.edge_diff_weight, params.neighbor_weight});
  certs->Finalize(n);

  ChIndex index;
  index.search_graph_ = SearchGraph(n, engine.EmittedArcs(), std::move(rank));
  index.build_stats_.seconds = timer.Seconds();
  index.build_stats_.shortcuts = engine.NumShortcutsAdded();
  index.witness_certs_ = std::move(certs);
  return index;
}

ChIndex ChIndex::RebuildWithFrozenOrder(const Graph& g, const ChIndex& previous,
                                        const ChParams& params) {
  Timer timer;
  const std::size_t n = g.NumNodes();
  if (n != previous.NumNodes()) {
    throw std::invalid_argument(
        "ChIndex::RebuildWithFrozenOrder: node count changed");
  }
  std::vector<Rank> rank(n, 0);
  for (NodeId v = 0; v < n; ++v) rank[v] = previous.RankOf(v);
  RepairResult repaired = RepairContraction(
      g, previous.search_graph(), params.contraction, previous.witness_certs());

  ChIndex index;
  index.search_graph_ = SearchGraph(n, repaired.arcs, std::move(rank));
  index.build_stats_.seconds = timer.Seconds();
  index.build_stats_.shortcuts = repaired.shortcuts;
  index.witness_certs_ = std::move(repaired.certs);
  return index;
}

void ChIndex::Save(std::ostream& out) const {
  BinaryWriter w(out);
  w.Magic("AHCH", 1);
  search_graph_.Save(out);
  w.Pod(build_stats_.seconds);
  w.Pod<std::uint64_t>(build_stats_.shortcuts);
}

ChIndex ChIndex::Load(std::istream& in) {
  BinaryReader r(in);
  r.Magic("AHCH", 1);
  ChIndex index;
  index.search_graph_ = SearchGraph::Load(in);
  index.build_stats_.seconds = r.Pod<double>();
  index.build_stats_.shortcuts = r.Pod<std::uint64_t>();
  return index;
}

Dist ChQuery::Distance(NodeId s, NodeId t) { return search_.Distance(s, t); }

PathResult ChQuery::Path(NodeId s, NodeId t) {
  PathResult result;
  result.length = search_.Distance(s, t);
  if (result.length == kInfDist) return result;
  if (s == t) {
    result.nodes = {s};
    return result;
  }
  result.nodes =
      index_.search_graph().UnpackPath(search_.HierarchyPath());
  return result;
}

}  // namespace ah
