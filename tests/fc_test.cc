#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "fc/fc_index.h"
#include "routing/dijkstra.h"
#include "routing/path.h"
#include "test_util.h"

namespace ah {
namespace {

class FcSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FcSeedTest, LevelOnlyModeMatchesDijkstraOnRandomGraph) {
  // Without the proximity constraint FC is exact for any level function
  // (the §3.4 upswing argument) — even on non-road-like graphs.
  Graph g = testing::MakeRandomGraph(150, 450, GetParam());
  FcIndex index = FcIndex::Build(g);
  FcQuery query(index, FcQueryOptions{.use_proximity = false});
  Dijkstra dijkstra(g);
  Rng rng(GetParam());
  for (int q = 0; q < 50; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    ASSERT_EQ(query.Distance(s, t), dijkstra.Distance(s, t))
        << "s=" << s << " t=" << t;
  }
}

TEST_P(FcSeedTest, FullConstraintsMatchDijkstraOnRoadGraph) {
  Graph g = testing::MakeRoadGraph(20, GetParam());
  FcIndex index = FcIndex::Build(g);
  FcQuery query(index);  // Proximity on.
  Dijkstra dijkstra(g);
  Rng rng(GetParam() + 3);
  for (int q = 0; q < 60; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    ASSERT_EQ(query.Distance(s, t), dijkstra.Distance(s, t))
        << "s=" << s << " t=" << t;
  }
}

TEST_P(FcSeedTest, NativePathsMatchDijkstraOnRandomGraph) {
  Graph g = testing::MakeRandomGraph(150, 450, GetParam());
  FcIndex index = FcIndex::Build(g);
  FcQuery query(index, FcQueryOptions{.use_proximity = false});
  Dijkstra dijkstra(g);
  Rng rng(GetParam() + 17);
  for (int q = 0; q < 40; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const Dist ref = dijkstra.Distance(s, t);
    const PathResult p = query.Path(s, t);
    ASSERT_EQ(p.length, ref) << "s=" << s << " t=" << t;
    if (ref == kInfDist) {
      EXPECT_TRUE(p.nodes.empty());
    } else {
      EXPECT_TRUE(IsValidPath(g, p.nodes, s, t, ref))
          << "s=" << s << " t=" << t;
    }
  }
}

TEST_P(FcSeedTest, NativePathsMatchDijkstraOnRoadGraph) {
  // Proximity constraint on: paths must stay exact on road-like inputs.
  Graph g = testing::MakeRoadGraph(20, GetParam());
  FcIndex index = FcIndex::Build(g);
  FcQuery query(index);
  Dijkstra dijkstra(g);
  Rng rng(GetParam() + 23);
  for (int q = 0; q < 40; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const Dist ref = dijkstra.Distance(s, t);
    const PathResult p = query.Path(s, t);
    ASSERT_EQ(p.length, ref) << "s=" << s << " t=" << t;
    if (ref != kInfDist) {
      EXPECT_TRUE(IsValidPath(g, p.nodes, s, t, ref))
          << "s=" << s << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FcSeedTest, ::testing::Values(1, 2, 9, 31));

TEST(FcTest, SelfQuery) {
  Graph g = testing::MakeRoadGraph(10, 5);
  FcIndex index = FcIndex::Build(g);
  FcQuery query(index);
  EXPECT_EQ(query.Distance(4, 4), 0u);
}

TEST(FcTest, SelfPathIsSingleNode) {
  Graph g = testing::MakeRoadGraph(10, 5);
  FcIndex index = FcIndex::Build(g);
  FcQuery query(index);
  const PathResult p = query.Path(4, 4);
  EXPECT_EQ(p.length, 0u);
  EXPECT_EQ(p.nodes, std::vector<NodeId>{4});
}

TEST(FcTest, IdentityQueryResetsSettledCounter) {
  // Regression (PR 2): Distance(s, s) used to early-return before resetting
  // last_settled_, so LastSettled() reported the previous query's count —
  // the same stale-counter bug fixed for ALT in PR 1.
  Graph g = testing::MakeRoadGraph(12, 5);
  FcIndex index = FcIndex::Build(g);
  FcQuery query(index);
  query.Distance(0, static_cast<NodeId>(g.NumNodes() - 1));
  ASSERT_GT(query.LastSettled(), 0u);
  EXPECT_EQ(query.Distance(3, 3), 0u);
  EXPECT_EQ(query.LastSettled(), 0u);
  // Path(s, s) takes the same early-return; it must reset too.
  query.Distance(0, static_cast<NodeId>(g.NumNodes() - 1));
  ASSERT_GT(query.LastSettled(), 0u);
  query.Path(3, 3);
  EXPECT_EQ(query.LastSettled(), 0u);
}

TEST(FcTest, BuildStatsPopulated) {
  Graph g = testing::MakeRoadGraph(14, 6);
  FcIndex index = FcIndex::Build(g);
  EXPECT_GT(index.build_stats().shortcuts, 0u);
  EXPECT_GT(index.build_stats().grid_depth, 0);
  EXPECT_GT(index.SizeBytes(), 0u);
  EXPECT_EQ(index.NumNodes(), g.NumNodes());
  // Hierarchy holds original arcs plus shortcuts.
  EXPECT_GE(index.hierarchy().NumArcs(), g.NumArcs());
  // The hierarchy retains midpoints; the unpack table covers every query
  // arc plus the unpack-only parent-chain arcs.
  EXPECT_TRUE(index.hierarchy().HasMids());
  EXPECT_EQ(index.hierarchy().NumUnpackArcs(),
            index.hierarchy().NumArcs() + index.build_stats().unpack_arcs);
}

TEST(FcTest, SizeBytesAccountsForAllOwnedMembers) {
  // Regression (PR 2): SizeBytes used to omit the grid stack (and would
  // have omitted the unpack table); it must equal the sum over every owned
  // member, which is what the fig10 space report prints.
  Graph g = testing::MakeRoadGraph(14, 6);
  FcIndex index = FcIndex::Build(g);
  const std::size_t expected =
      index.NumNodes() * (sizeof(Level) + sizeof(Point)) +
      index.grids().SizeBytes() + index.hierarchy().SizeBytes();
  EXPECT_EQ(index.SizeBytes(), expected);
  EXPECT_GT(index.grids().SizeBytes(), 0u);
  EXPECT_GT(index.hierarchy().SizeBytes(), 0u);
}

TEST(FcTest, LevelsWithinGridDepth) {
  Graph g = testing::MakeRoadGraph(14, 7);
  FcIndex index = FcIndex::Build(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_GE(index.LevelOf(v), 0);
    EXPECT_LE(index.LevelOf(v), index.grids().Depth());
  }
  EXPECT_GT(index.build_stats().max_level, 0);
}

TEST(FcTest, ConstrainedSearchSettlesFewerNodes) {
  Graph g = testing::MakeRoadGraph(24, 8);
  FcIndex index = FcIndex::Build(g);
  FcQuery query(index);
  Dijkstra dijkstra(g);
  const NodeId s = 0;
  const NodeId t = static_cast<NodeId>(g.NumNodes() - 1);
  query.Distance(s, t);
  dijkstra.Distance(s, t);
  EXPECT_LT(query.LastSettled(), dijkstra.SettledNodes().size());
}

// The per-source shortcut searches run on ParallelChunks; chunk-ordered
// merging must make the built hierarchy bit-identical at any thread count.
// (FcIndex::Save embeds wall-clock build timings, so the comparison runs on
// the structural data: levels plus the serialized hierarchy.)
TEST(FcTest, ParallelBuildIsDeterministicAcrossThreadCounts) {
  Graph g = testing::MakeRoadGraph(14, 9);
  const FcIndex serial = FcIndex::Build(g, FcParams{.build_threads = 1});
  const FcIndex parallel = FcIndex::Build(g, FcParams{.build_threads = 4});

  EXPECT_EQ(serial.build_stats().shortcuts, parallel.build_stats().shortcuts);
  EXPECT_EQ(serial.build_stats().unpack_arcs,
            parallel.build_stats().unpack_arcs);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(serial.LevelOf(v), parallel.LevelOf(v)) << "node " << v;
  }
  std::ostringstream serial_bytes;
  std::ostringstream parallel_bytes;
  serial.hierarchy().Save(serial_bytes);
  parallel.hierarchy().Save(parallel_bytes);
  EXPECT_EQ(serial_bytes.str(), parallel_bytes.str());
}

// Shortcut distances of 2^32 - 1 or more do not fit fc's 32-bit arc
// weights. The build refuses with a typed error naming the arc, the same
// arc at any thread count, instead of truncating it into wrong answers.
TEST(FcTest, BuildRefusesDistancesBeyondArcWeights) {
  const Graph g = testing::MakeHeavyWeightGraph(40, 100, 17);
  std::string messages[2];
  const std::size_t threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    try {
      FcIndex::Build(g, FcParams{.build_threads = threads[i]});
      ADD_FAILURE() << "built at " << threads[i] << " threads";
    } catch (const std::overflow_error& e) {
      messages[i] = e.what();
    }
  }
  EXPECT_NE(messages[0].find("FcIndex::Build: arc "), std::string::npos)
      << messages[0];
  EXPECT_EQ(messages[0], messages[1]);
}

}  // namespace
}  // namespace ah
