// Figure 10: index space (MB) and preprocessing time (seconds) vs. the
// number of nodes n, for SILC / CH / FC / AH, with 2-hop hub labels (HL) as
// the post-paper point of comparison.
//
// Expected shape (paper): SILC super-linear in both space and time (dropped
// beyond a size cutoff); AH linear space, near-linear preprocessing; CH the
// cheapest on both axes. FC (§3.3, quadratic-ish preprocessing) is also
// capped by size; its space report includes the grid stack and the shortcut
// midpoint/unpack tables. HL's space counts its hot (hub, distance)
// entries, cold parents, overflow lists and offsets.
//
// Each HL index is cross-checked against CH on a few random pairs; a
// disagreement prints a "!!" line, which the bench smoke test fails on.
#include "bench_common.h"
#include "ch/ch_index.h"
#include "core/ah_index.h"
#include "fc/fc_index.h"
#include "hl/hl_index.h"
#include "silc/silc_index.h"
#include "util/rng.h"

int main() {
  using namespace ah;
  using namespace ah::bench;
  PrintHeader("Figure 10 — Space Overhead and Preprocessing Time vs. n",
              "index size (MB) and build time (s) per method and dataset");

  const std::size_t count = BenchDatasetCountFromEnv(5);
  const std::size_t silc_max = EnvSizeT("AH_BENCH_SILC_MAX", 12000);
  const std::size_t fc_max = EnvSizeT("AH_BENCH_FC_MAX", 12000);
  constexpr double kMb = 1024.0 * 1024.0;

  TextTable table({"dataset", "n", "AH MB", "CH MB", "HL MB", "FC MB",
                   "SILC MB", "AH s", "CH s", "HL s", "FC s", "SILC s",
                   "AH shortcuts/n"});
  for (const PreparedDataset& d : PrepareDatasets(count)) {
    const Graph& g = d.graph;
    Timer timer;
    ChIndex ch = ChIndex::Build(g);
    const double ch_s = timer.Seconds();
    timer.Restart();
    AhIndex ah = AhIndex::Build(g);
    const double ah_s = timer.Seconds();
    timer.Restart();
    HlIndex hl = HlIndex::Build(g);
    const double hl_s = timer.Seconds();

    ChQuery ch_query(ch);
    Rng rng(20130624);
    for (int q = 0; q < 32; ++q) {
      const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
      const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
      const Dist want = ch_query.Distance(s, t);
      const Dist got = hl.Distance(s, t);
      if (got != want) {
        std::printf("!! HL/CH distance mismatch on %s: d(%u,%u) hl=%llu "
                    "ch=%llu\n",
                    d.spec.name.c_str(), s, t,
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(want));
      }
    }

    std::string fc_mb = "-";
    std::string fc_s = "-";
    if (g.NumNodes() <= fc_max) {
      timer.Restart();
      FcIndex fc = FcIndex::Build(g);
      fc_s = TextTable::Num(timer.Seconds(), 2);
      fc_mb = TextTable::Num(static_cast<double>(fc.SizeBytes()) / kMb, 2);
    }

    std::string silc_mb = "-";
    std::string silc_s = "-";
    if (g.NumNodes() <= silc_max) {
      timer.Restart();
      SilcIndex silc = SilcIndex::Build(g);
      silc_s = TextTable::Num(timer.Seconds(), 2);
      silc_mb = TextTable::Num(static_cast<double>(silc.SizeBytes()) / kMb, 2);
    }

    table.AddRow(
        {d.spec.name,
         TextTable::Int(static_cast<long long>(g.NumNodes())),
         TextTable::Num(static_cast<double>(ah.SizeBytes()) / kMb, 2),
         TextTable::Num(static_cast<double>(ch.SizeBytes()) / kMb, 2),
         TextTable::Num(static_cast<double>(hl.SizeBytes()) / kMb, 2),
         fc_mb, silc_mb, TextTable::Num(ah_s, 2), TextTable::Num(ch_s, 2),
         TextTable::Num(hl_s, 2), fc_s, silc_s,
         TextTable::Num(static_cast<double>(ah.build_stats().shortcuts) /
                            static_cast<double>(g.NumNodes()),
                        2)});
    std::printf("[done] %s\n", d.spec.name.c_str());
    std::fflush(stdout);
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nPaper shape check: SILC MB/n and s/n grow with n (super-linear);\n"
      "FC s/n grows too (quadratic-ish preprocessing, §3.3); AH MB/n\n"
      "roughly constant (linear space); CH smallest and fastest. HL MB/n\n"
      "tracks the average label count per node: space traded for\n"
      "search-free queries.\n");
  return 0;
}
