// Table 2: dataset characteristics. Prints the paper's reported sizes next
// to the synthetic stand-ins generated at the configured scale.
#include "bench_common.h"
#include "graph/connectivity.h"

int main() {
  using namespace ah;
  using namespace ah::bench;
  PrintHeader("Table 2 — Dataset Characteristics",
              "paper sizes vs. synthetic stand-ins generated offline");

  const std::size_t count = BenchDatasetCountFromEnv(10);
  const double scale = BenchScaleFromEnv();

  TextTable table({"Name", "Region", "Paper nodes", "Paper edges",
                   "Gen nodes", "Gen edges", "Gen m/n", "SCC"});
  for (std::size_t i = 0; i < count; ++i) {
    const DatasetSpec& spec = PaperDatasets()[i];
    Timer timer;
    Graph g = MakeScaledDataset(spec, scale);
    const bool scc = IsStronglyConnected(g);
    table.AddRow({spec.name, spec.region,
                  TextTable::Int(static_cast<long long>(spec.paper_nodes)),
                  TextTable::Int(static_cast<long long>(spec.paper_arcs)),
                  TextTable::Int(static_cast<long long>(g.NumNodes())),
                  TextTable::Int(static_cast<long long>(g.NumArcs())),
                  TextTable::Num(static_cast<double>(g.NumArcs()) /
                                     static_cast<double>(g.NumNodes()),
                                 2),
                  scc ? "yes" : "NO"});
    std::printf("[gen] %-5s done in %.1fs\n", spec.name.c_str(),
                timer.Seconds());
    std::fflush(stdout);
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nNote: generated networks reproduce the structural properties the\n"
      "paper relies on (planar-ish, degree-bounded, strongly connected,\n"
      "hierarchical road classes) at %.4fx the paper's node counts.\n",
      scale);
  return 0;
}
