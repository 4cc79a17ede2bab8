#include <gtest/gtest.h>

#include "core/ah_query.h"
#include "routing/dijkstra.h"
#include "test_util.h"

namespace ah {
namespace {

class AhExactSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AhExactSeedTest, ExactModeMatchesDijkstraOnArbitraryGraphs) {
  // kExact must be correct even on graphs that violate the arterial-
  // dimension assumption entirely.
  Graph g = testing::MakeRandomGraph(180, 540, GetParam());
  AhIndex index = AhIndex::Build(g);
  AhQuery query(index, AhQueryOptions{.mode = AhQueryMode::kExact});
  Dijkstra dijkstra(g);
  Rng rng(GetParam());
  for (int q = 0; q < 50; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    ASSERT_EQ(query.Distance(s, t), dijkstra.Distance(s, t))
        << "seed=" << GetParam() << " s=" << s << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AhExactSeedTest,
                         ::testing::Values(1, 2, 3, 17, 99));

class AhPrunedSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AhPrunedSeedTest, PrunedModeMatchesDijkstraOnRoadGraphs) {
  // THE core correctness claim: the paper's full query algorithm (rank +
  // proximity + elevating jumps) is exact on road networks.
  Graph g = testing::MakeRoadGraph(26, GetParam());
  AhIndex index = AhIndex::Build(g);
  AhQuery query(index);  // kPruned defaults.
  Dijkstra dijkstra(g);
  Rng rng(GetParam() * 7 + 1);
  for (int q = 0; q < 120; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    ASSERT_EQ(query.Distance(s, t), dijkstra.Distance(s, t))
        << "seed=" << GetParam() << " s=" << s << " t=" << t;
  }
}

TEST_P(AhPrunedSeedTest, ElevatingOnlyMatchesDijkstra) {
  Graph g = testing::MakeRoadGraph(22, GetParam() ^ 0x5a);
  AhIndex index = AhIndex::Build(g);
  AhQueryOptions options;
  options.use_proximity = false;
  AhQuery query(index, options);
  Dijkstra dijkstra(g);
  Rng rng(GetParam());
  for (int q = 0; q < 80; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    ASSERT_EQ(query.Distance(s, t), dijkstra.Distance(s, t))
        << "s=" << s << " t=" << t;
  }
}

TEST_P(AhPrunedSeedTest, PathsValidAndOptimalInBothModes) {
  Graph g = testing::MakeRoadGraph(20, GetParam() + 11);
  AhIndex index = AhIndex::Build(g);
  AhQuery exact(index, AhQueryOptions{.mode = AhQueryMode::kExact});
  AhQuery pruned(index);
  Dijkstra dijkstra(g);
  Rng rng(GetParam());
  for (int q = 0; q < 40; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const Dist ref = dijkstra.Distance(s, t);
    const PathResult pe = exact.Path(s, t);
    ASSERT_EQ(pe.length, ref) << "exact s=" << s << " t=" << t;
    const PathResult pp = pruned.Path(s, t);
    ASSERT_EQ(pp.length, ref) << "pruned s=" << s << " t=" << t;
    if (ref == kInfDist) continue;
    EXPECT_TRUE(IsValidPath(g, pe.nodes, s, t, ref));
    EXPECT_TRUE(IsValidPath(g, pp.nodes, s, t, ref))
        << "pruned path invalid s=" << s << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AhPrunedSeedTest,
                         ::testing::Values(4, 5, 6, 23, 71));

TEST(AhQueryTest, SelfQuery) {
  Graph g = testing::MakeRoadGraph(12, 1);
  AhIndex index = AhIndex::Build(g);
  AhQuery query(index);
  EXPECT_EQ(query.Distance(3, 3), 0u);
  const PathResult p = query.Path(3, 3);
  EXPECT_EQ(p.length, 0u);
  EXPECT_EQ(p.nodes, std::vector<NodeId>{3});
}

TEST(AhQueryTest, PrunedSettlesFewerNodesThanExactOnLongQueries) {
  Graph g = testing::MakeRoadGraph(36, 2);
  AhIndex index = AhIndex::Build(g);
  AhQuery exact(index, AhQueryOptions{.mode = AhQueryMode::kExact});
  AhQuery pruned(index);
  // A long corner-to-corner query: the pruned search should do less work
  // on average.
  Rng rng(2);
  std::size_t exact_settled = 0;
  std::size_t pruned_settled = 0;
  for (int q = 0; q < 30; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes() / 8));
    const NodeId t = static_cast<NodeId>(g.NumNodes() - 1 -
                                         rng.Uniform(g.NumNodes() / 8));
    const Dist de = exact.Distance(s, t);
    exact_settled += exact.LastStats().settled;
    const Dist dp = pruned.Distance(s, t);
    pruned_settled += pruned.LastStats().settled;
    ASSERT_EQ(de, dp);
  }
  EXPECT_LT(pruned_settled, exact_settled);
}

TEST(AhQueryTest, WorksWithoutGateways) {
  Graph g = testing::MakeRoadGraph(18, 3);
  AhParams params;
  params.build_gateways = false;
  AhIndex index = AhIndex::Build(g, params);
  AhQuery query(index);  // Elevating enabled but no lists: falls back.
  Dijkstra dijkstra(g);
  Rng rng(3);
  for (int q = 0; q < 60; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    ASSERT_EQ(query.Distance(s, t), dijkstra.Distance(s, t));
  }
}

TEST(AhQueryTest, OneWayStreetsHandled) {
  // Directed correctness: d(s,t) may differ from d(t,s).
  Graph g = testing::MakeRoadGraph(20, 4);
  AhIndex index = AhIndex::Build(g);
  AhQuery query(index);
  Dijkstra dijkstra(g);
  Rng rng(4);
  int asymmetric = 0;
  for (int q = 0; q < 60; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const Dist fwd = query.Distance(s, t);
    const Dist bwd = query.Distance(t, s);
    ASSERT_EQ(fwd, dijkstra.Distance(s, t));
    ASSERT_EQ(bwd, dijkstra.Distance(t, s));
    asymmetric += fwd != bwd;
  }
  EXPECT_GT(asymmetric, 0);  // One-way streets must exist somewhere.
}

TEST(AhQueryTest, LongRangeQueriesUseElevation) {
  Graph g = testing::MakeRoadGraph(30, 5);
  AhIndex index = AhIndex::Build(g);
  // Far-apart pair: the jump level must be positive.
  NodeId s = 0, t = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (LInfDistance(index.Coord(v), index.Coord(0)) >
        LInfDistance(index.Coord(t), index.Coord(0))) {
      t = v;
    }
  }
  EXPECT_GT(index.QueryJumpLevel(s, t), 0);
  AhQuery query(index);
  Dijkstra dijkstra(g);
  EXPECT_EQ(query.Distance(s, t), dijkstra.Distance(s, t));
}

}  // namespace
}  // namespace ah
