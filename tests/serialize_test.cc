#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ch/ch_index.h"
#include "core/ah_query.h"
#include "routing/dijkstra.h"
#include "test_util.h"
#include "util/serialize.h"

namespace ah {
namespace {

TEST(BinaryIoTest, PodRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.Pod<std::uint32_t>(42);
  w.Pod<double>(3.5);
  BinaryReader r(ss);
  EXPECT_EQ(r.Pod<std::uint32_t>(), 42u);
  EXPECT_DOUBLE_EQ(r.Pod<double>(), 3.5);
}

TEST(BinaryIoTest, VectorRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  std::vector<std::uint64_t> values = {1, 2, 3, 1ull << 50};
  // Spans several of the reader's fixed-size chunks, ending mid-chunk.
  std::vector<std::uint64_t> large(300001);
  for (std::size_t i = 0; i < large.size(); ++i) large[i] = i * 7 + 1;
  w.Vector(values);
  w.Vector(std::vector<std::uint64_t>{});
  w.Vector(large);
  BinaryReader r(ss);
  EXPECT_EQ(r.Vector<std::uint64_t>(), values);
  EXPECT_TRUE(r.Vector<std::uint64_t>().empty());
  EXPECT_EQ(r.Vector<std::uint64_t>(), large);
}

TEST(BinaryIoTest, MagicValidation) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.Magic("ABCD", 2);
  BinaryReader r(ss);
  EXPECT_EQ(r.Magic("ABCD", 3), 2);

  std::stringstream ss2;
  BinaryWriter w2(ss2);
  w2.Magic("ABCD", 2);
  BinaryReader r2(ss2);
  EXPECT_THROW(r2.Magic("WXYZ", 3), std::runtime_error);
}

TEST(BinaryIoTest, VersionTooNewRejected) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.Magic("ABCD", 9);
  BinaryReader r(ss);
  EXPECT_THROW(r.Magic("ABCD", 3), std::runtime_error);
}

TEST(BinaryIoTest, TruncationDetected) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.Pod<std::uint64_t>(10);  // Vector length without payload.
  BinaryReader r(ss);
  EXPECT_THROW(r.Vector<std::uint64_t>(), std::runtime_error);
}

// A forged length prefix must fail as truncated input once the bytes run
// out, not allocate 2^39 elements (4 TiB) before reading any of them.
TEST(BinaryIoTest, ForgedVectorCountFailsAsTruncation) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.Pod<std::uint64_t>(1ull << 39);
  w.Pod<std::uint64_t>(1);
  w.Pod<std::uint64_t>(2);
  BinaryReader r(ss);
  try {
    r.Vector<std::uint64_t>();
    FAIL() << "forged count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(GraphSerializeTest, RoundTripPreservesEverything) {
  Graph g = testing::MakeRandomGraph(80, 240, 3);
  std::stringstream ss;
  g.Save(ss);
  Graph g2 = Graph::Load(ss);
  ASSERT_EQ(g2.NumNodes(), g.NumNodes());
  ASSERT_EQ(g2.NumArcs(), g.NumArcs());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(g2.Coord(v), g.Coord(v));
    ASSERT_EQ(g2.OutDegree(v), g.OutDegree(v));
    for (const Arc& a : g.OutArcs(v)) {
      EXPECT_EQ(g2.ArcWeight(v, a.head), a.weight);
    }
  }
}

TEST(GraphSerializeTest, RejectsGarbage) {
  std::stringstream ss;
  ss << "this is not a graph";
  EXPECT_THROW(Graph::Load(ss), std::runtime_error);
}

TEST(ChSerializeTest, LoadedIndexAnswersIdentically) {
  Graph g = testing::MakeRoadGraph(16, 4);
  ChIndex built = ChIndex::Build(g);
  std::stringstream ss;
  built.Save(ss);
  ChIndex loaded = ChIndex::Load(ss);
  EXPECT_EQ(loaded.build_stats().shortcuts, built.build_stats().shortcuts);

  ChQuery q1(built);
  ChQuery q2(loaded);
  Dijkstra dijkstra(g);
  Rng rng(4);
  for (int i = 0; i < 40; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const Dist ref = dijkstra.Distance(s, t);
    ASSERT_EQ(q1.Distance(s, t), ref);
    ASSERT_EQ(q2.Distance(s, t), ref);
  }
}

TEST(AhSerializeTest, LoadedIndexAnswersIdentically) {
  Graph g = testing::MakeRoadGraph(18, 5);
  AhIndex built = AhIndex::Build(g);
  std::stringstream ss;
  built.Save(ss);
  AhIndex loaded = AhIndex::Load(ss);
  EXPECT_EQ(loaded.MaxLevel(), built.MaxLevel());
  EXPECT_EQ(loaded.build_stats().shortcuts, built.build_stats().shortcuts);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(loaded.LevelOf(v), built.LevelOf(v));
    ASSERT_EQ(loaded.search_graph().RankOf(v), built.search_graph().RankOf(v));
  }

  AhQuery q1(built);
  AhQuery q2(loaded);
  Dijkstra dijkstra(g);
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const Dist ref = dijkstra.Distance(s, t);
    ASSERT_EQ(q1.Distance(s, t), ref);
    ASSERT_EQ(q2.Distance(s, t), ref);
  }
}

TEST(AhSerializeTest, PathQueriesWorkOnLoadedIndex) {
  Graph g = testing::MakeRoadGraph(14, 6);
  AhIndex built = AhIndex::Build(g);
  std::stringstream ss;
  built.Save(ss);
  AhIndex loaded = AhIndex::Load(ss);
  AhQuery query(loaded);
  Dijkstra dijkstra(g);
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const Dist ref = dijkstra.Distance(s, t);
    const PathResult p = query.Path(s, t);
    ASSERT_EQ(p.length, ref);
    if (ref != kInfDist) {
      EXPECT_TRUE(IsValidPath(g, p.nodes, s, t, ref));
    }
  }
}

TEST(AhSerializeTest, GatewaysSurviveRoundTrip) {
  Graph g = testing::MakeRoadGraph(16, 7);
  AhIndex built = AhIndex::Build(g);
  std::stringstream ss;
  built.Save(ss);
  AhIndex loaded = AhIndex::Load(ss);
  for (NodeId v = 0; v < g.NumNodes(); v += 3) {
    const Level j = built.LevelOf(v) + 1;
    const auto a = built.FwdGateways(v, j);
    const auto b = loaded.FwdGateways(v, j);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, b[i].node);
      EXPECT_EQ(a[i].dist, b[i].dist);
    }
  }
}

}  // namespace
}  // namespace ah
