#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "hier/contraction.h"
#include "routing/dijkstra.h"
#include "test_util.h"

namespace ah {
namespace {

TEST(ContractionEngineTest, ArcsOfExtractsEverything) {
  Graph g = testing::MakeRandomGraph(20, 40, 1);
  const auto arcs = ArcsOf(g);
  EXPECT_EQ(arcs.size(), g.NumArcs());
  for (const HierArc& a : arcs) {
    EXPECT_EQ(a.mid, kInvalidNode);
    EXPECT_EQ(g.ArcWeight(a.tail, a.head), a.weight);
  }
}

TEST(ContractionEngineTest, ContractLineMiddleAddsShortcut) {
  // 0 -- 1 -- 2 (bidirectional): contracting 1 must add 0<->2 shortcuts.
  std::vector<HierArc> arcs = {{0, 1, 3, kInvalidNode},
                               {1, 0, 3, kInvalidNode},
                               {1, 2, 4, kInvalidNode},
                               {2, 1, 4, kInvalidNode}};
  ContractionEngine engine(3, arcs);
  const std::size_t added = engine.Contract(1);
  EXPECT_EQ(added, 2u);
  const auto remaining = engine.RemainingArcs();
  ASSERT_EQ(remaining.size(), 2u);
  for (const HierArc& a : remaining) {
    EXPECT_EQ(a.weight, 7u);
    EXPECT_EQ(a.mid, 1u);
  }
}

TEST(ContractionEngineTest, ShortcutBeyondWeightRangeIsKeptAsHeavyArc) {
  // 0 -> 1 -> 2 -> 3 with near-maximal weights: contracting 1 then 2 needs
  // shortcuts 0->2 and 0->3 whose weights do not fit a Weight. They stay in
  // the engine (0->3 builds on 0->2) and come out as exact HeavyArcs.
  const Weight w = kMaxWeight - 1;
  std::vector<HierArc> arcs = {{0, 1, w, kInvalidNode},
                               {1, 2, w, kInvalidNode},
                               {2, 3, 5, kInvalidNode}};
  ContractionEngine engine(4, arcs);
  EXPECT_EQ(engine.Contract(1), 1u);
  EXPECT_EQ(engine.Contract(2), 1u);
  EXPECT_TRUE(engine.RemainingArcs().empty());  // 0->3 is heavy.
  engine.Contract(0);
  engine.Contract(3);
  ASSERT_EQ(engine.HeavyArcs().size(), 2u);
  for (const HeavyArc& a : engine.HeavyArcs()) {
    EXPECT_EQ(a.tail, 0u);
    if (a.head == 2) {
      EXPECT_EQ(a.weight, 2 * Dist{w});
      EXPECT_EQ(a.mid, 1u);
    } else {
      EXPECT_EQ(a.head, 3u);
      EXPECT_EQ(a.weight, 2 * Dist{w} + 5);
      EXPECT_EQ(a.mid, 2u);
    }
  }
  for (const HierArc& a : engine.EmittedArcs()) {
    EXPECT_LT(a.weight, kMaxWeight);
  }
  EXPECT_EQ(engine.EmittedArcs().size(), 3u);  // The original arcs.
}

TEST(ContractionEngineTest, WitnessSuppressesRedundantShortcut) {
  // Triangle with a cheap bypass: contracting 1 must NOT add 0->2 because
  // the direct edge 0->2 (weight 5) witnesses the 0->1->2 path (weight 7).
  std::vector<HierArc> arcs = {{0, 1, 3, kInvalidNode},
                               {1, 2, 4, kInvalidNode},
                               {0, 2, 5, kInvalidNode}};
  ContractionEngine engine(3, arcs);
  EXPECT_EQ(engine.Contract(1), 0u);
  for (const HierArc& a : engine.RemainingArcs()) {
    EXPECT_EQ(a.weight, 5u);  // Only the original 0->2 remains.
  }
}

TEST(ContractionEngineTest, SimulateMatchesContract) {
  Graph g = testing::MakeRandomGraph(60, 180, 3);
  ContractionEngine a(g.NumNodes(), ArcsOf(g));
  ContractionEngine b(g.NumNodes(), ArcsOf(g));
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    NodeId v = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    while (a.IsContracted(v)) v = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const std::size_t predicted = a.SimulateContraction(v);
    const std::size_t actual = a.Contract(v);
    b.Contract(v);
    // Contract can find strictly more witnesses than Simulate (shortcuts
    // added for earlier neighbor pairs participate in later witness
    // searches within the same call), so the estimate is an upper bound.
    EXPECT_GE(predicted, actual) << "node " << v;
  }
}

TEST(ContractionEngineTest, EmittedArcsAreUniquePerPair) {
  Graph g = testing::MakeRandomGraph(50, 150, 7);
  ContractionEngine engine(g.NumNodes(), ArcsOf(g));
  for (NodeId v = 0; v < g.NumNodes(); ++v) engine.Contract(v);
  std::vector<std::uint64_t> keys;
  for (const HierArc& a : engine.EmittedArcs()) {
    keys.push_back((static_cast<std::uint64_t>(a.tail) << 32) | a.head);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(ContractionEngineTest, MidpointInvariantHolds) {
  // Every emitted shortcut's weight equals the sum of its two halves, and
  // the halves exist among the emitted arcs (the §4.1 two-hop property).
  Graph g = testing::MakeRandomGraph(80, 240, 9);
  ContractionEngine engine(g.NumNodes(), ArcsOf(g));
  for (NodeId v = 0; v < g.NumNodes(); ++v) engine.Contract(v);
  const auto& arcs = engine.EmittedArcs();
  auto find_weight = [&](NodeId u, NodeId w) -> Dist {
    for (const HierArc& a : arcs) {
      if (a.tail == u && a.head == w) return a.weight;
    }
    return kInfDist;
  };
  std::size_t shortcuts = 0;
  for (const HierArc& a : arcs) {
    if (a.mid == kInvalidNode) continue;
    ++shortcuts;
    const Dist left = find_weight(a.tail, a.mid);
    const Dist right = find_weight(a.mid, a.head);
    ASSERT_NE(left, kInfDist);
    ASSERT_NE(right, kInfDist);
    EXPECT_EQ(left + right, a.weight);
  }
  EXPECT_GT(shortcuts, 0u);
}

class OverlaySeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlaySeedTest, OverlayPreservesDistancesAmongKeptNodes) {
  Graph g = testing::MakeRandomGraph(70, 200, GetParam());
  const std::size_t n = g.NumNodes();
  Rng rng(GetParam() ^ 0xbeef);

  // Remove a random ~60% of the nodes.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i-- > 1;) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  order.resize(n * 6 / 10);
  std::vector<bool> removed(n, false);
  for (NodeId v : order) removed[v] = true;

  const auto overlay_arcs = ContractNodes(n, ArcsOf(g), order);
  for (const HierArc& a : overlay_arcs) {
    EXPECT_FALSE(removed[a.tail]);
    EXPECT_FALSE(removed[a.head]);
  }

  // Overlay distances == original distances for kept pairs.
  GraphBuilder ob(n);
  for (NodeId v = 0; v < n; ++v) ob.AddNode(g.Coord(v));
  for (const HierArc& a : overlay_arcs) ob.AddArc(a.tail, a.head, a.weight);
  Graph overlay = ob.Build();

  Dijkstra orig(g);
  Dijkstra over(overlay);
  int checked = 0;
  for (NodeId s = 0; s < n && checked < 8; ++s) {
    if (removed[s]) continue;
    ++checked;
    orig.Run(s);
    over.Run(s);
    for (NodeId t = 0; t < n; ++t) {
      if (removed[t]) continue;
      ASSERT_EQ(over.DistTo(t), orig.DistTo(t))
          << "seed=" << GetParam() << " s=" << s << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlaySeedTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(ContractionEngineTest, TinyWitnessBudgetStaysCorrect) {
  // With a witness budget of 1, almost every candidate shortcut is added —
  // wasteful but still distance-preserving.
  Graph g = testing::MakeRandomGraph(40, 120, 5);
  ContractionParams params;
  params.witness_settle_limit = 1;
  std::vector<NodeId> remove = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto overlay_arcs = ContractNodes(g.NumNodes(), ArcsOf(g), remove, params);
  GraphBuilder ob(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) ob.AddNode(g.Coord(v));
  for (const HierArc& a : overlay_arcs) ob.AddArc(a.tail, a.head, a.weight);
  Graph overlay = ob.Build();
  Dijkstra orig(g);
  Dijkstra over(overlay);
  orig.Run(15);
  over.Run(15);
  for (NodeId t = 10; t < g.NumNodes(); ++t) {
    ASSERT_EQ(over.DistTo(t), orig.DistTo(t));
  }
}

TEST(ContractionEngineTest, DegreeAccessors) {
  std::vector<HierArc> arcs = {{0, 1, 1, kInvalidNode},
                               {1, 2, 1, kInvalidNode},
                               {2, 0, 1, kInvalidNode}};
  ContractionEngine engine(3, arcs);
  EXPECT_EQ(engine.CurrentOutDegree(0), 1u);
  EXPECT_EQ(engine.CurrentInDegree(0), 1u);
  EXPECT_EQ(engine.ContractedNeighborCount(0), 0u);
  engine.Contract(1);
  EXPECT_EQ(engine.ContractedNeighborCount(0), 1u);
  EXPECT_EQ(engine.NumContracted(), 1u);
  EXPECT_TRUE(engine.IsContracted(1));
}

}  // namespace
}  // namespace ah
