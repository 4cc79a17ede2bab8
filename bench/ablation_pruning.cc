// Ablation: AH query-time pruning. Measures, per query set, the settled
// node count and latency of
//   (a) exact mode (rank constraint only — plain hierarchy query),
//   (b) + elevating jumps,
//   (c) full pruned mode (paper's query algorithm: + proximity constraint),
// all validated against Dijkstra checksums. Proximity without elevating
// seeds answered some DE-scale pairs wrong, so that mode no longer exists.
#include "bench_common.h"
#include "core/ah_query.h"
#include "routing/dijkstra.h"

int main() {
  using namespace ah;
  using namespace ah::bench;
  PrintHeader("Ablation — AH Query Pruning (§4.3)",
              "rank constraint alone vs. +elevating vs. full pruned");

  const std::size_t count = BenchDatasetCountFromEnv(2);
  const std::size_t pairs = EnvSizeT("AH_BENCH_PAIRS", 60);

  for (const PreparedDataset& d : PrepareDatasets(count)) {
    const Graph& g = d.graph;
    const Workload workload = BenchWorkload(g, pairs);
    AhIndex index = AhIndex::Build(g);
    Dijkstra dijkstra(g);

    struct Mode {
      std::string name;
      AhQueryOptions options;
    };
    std::vector<Mode> modes;
    modes.push_back({"exact (rank only)",
                     AhQueryOptions{.mode = AhQueryMode::kExact}});
    {
      AhQueryOptions o;
      o.use_proximity = false;
      modes.push_back({"+elevating", o});
    }
    modes.push_back({"full pruned", AhQueryOptions{}});

    std::printf("\n--- %s (n = %s) — avg settled nodes / avg us per set ---\n",
                d.spec.name.c_str(),
                TextTable::Int(static_cast<long long>(g.NumNodes())).c_str());
    std::vector<std::string> header = {"set", "pairs"};
    for (const Mode& m : modes) {
      header.push_back(m.name + " settled");
      header.push_back(m.name + " us");
    }
    header.push_back("ok");
    TextTable table(header);
    for (const QuerySet& qs : workload.sets) {
      const auto [dij_us, ref_sum] = TimeQueries(
          qs.pairs, [&](NodeId s, NodeId t) { return dijkstra.Distance(s, t); });
      (void)dij_us;
      std::vector<std::string> row = {QuerySetLabel(qs.index),
                                      std::to_string(qs.pairs.size())};
      bool all_ok = true;
      for (const Mode& m : modes) {
        AhQuery query(index, m.options);
        std::size_t settled = 0;
        const auto [us, sum] = TimeQueries(qs.pairs, [&](NodeId s, NodeId t) {
          const Dist dd = query.Distance(s, t);
          settled += query.LastStats().settled;
          return dd;
        });
        all_ok &= sum == ref_sum;
        row.push_back(TextTable::Num(
            static_cast<double>(settled) /
                std::max<std::size_t>(qs.pairs.size(), 1),
            1));
        row.push_back(TextTable::Num(us, 2));
      }
      row.push_back(all_ok ? "yes" : "MISMATCH");
      table.AddRow(row);
    }
    table.Print();
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: each pruning layer cuts settled nodes, most strongly\n"
      "on far query sets (Q8-Q10); every mode stays exact (ok = yes).\n");
  return 0;
}
