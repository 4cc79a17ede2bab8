// Hub labeling: exactness against Dijkstra (including label distances that
// overflow the 32-bit hot entries), label-array invariants, native path
// recovery, build determinism across thread counts, and the bounded
// in-flight delta-buffer guarantee of the windowed parallel build.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "api/distance_oracle.h"
#include "graph/weight_update.h"
#include "hl/hl_index.h"
#include "routing/dijkstra.h"
#include "routing/path.h"
#include "test_util.h"
#include "util/rng.h"

namespace ah {
namespace {

class HlSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HlSeedTest, DistanceMatchesDijkstra) {
  const Graph g = testing::MakeRoadGraph(14, GetParam());
  const HlIndex index = HlIndex::Build(g);
  Dijkstra dijkstra(g);
  Rng rng(GetParam());
  for (int q = 0; q < 80; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    ASSERT_EQ(index.Distance(s, t), dijkstra.Distance(s, t))
        << "s=" << s << " t=" << t;
  }
}

TEST_P(HlSeedTest, PathsValidAndOptimal) {
  const Graph g = testing::MakeRoadGraph(12, GetParam() + 9);
  const HlIndex index = HlIndex::Build(g);
  Dijkstra dijkstra(g);
  Rng rng(GetParam());
  for (int q = 0; q < 40; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const PathResult path = index.Path(s, t);
    const Dist ref = dijkstra.Distance(s, t);
    ASSERT_EQ(path.length, ref);
    if (ref != kInfDist) {
      EXPECT_TRUE(IsValidPath(g, path.nodes, s, t, ref));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HlSeedTest, ::testing::Values(1, 2, 3));

TEST(HlTest, ExactOnAdversarialGraphs) {
  const Graph graphs[] = {
      testing::MakeRandomGraph(60, 180, 7),
      testing::MakeDisconnectedGraph(25, 8),
      testing::MakeParallelArcGraph(24, 9),
  };
  for (const Graph& g : graphs) {
    const HlIndex index = HlIndex::Build(g);
    Dijkstra dijkstra(g);
    Rng rng(5);
    for (int q = 0; q < 120; ++q) {
      const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
      const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
      ASSERT_EQ(index.Distance(s, t), dijkstra.Distance(s, t))
          << "n=" << g.NumNodes() << " s=" << s << " t=" << t;
    }
  }
}

TEST(HlTest, UnreachablePairsAnswerInfAndEmptyPath) {
  const Graph g = testing::MakeDisconnectedGraph(20, 11);
  const HlIndex index = HlIndex::Build(g);
  EXPECT_EQ(index.Distance(0, 20), kInfDist);
  const PathResult p = index.Path(0, 20);
  EXPECT_EQ(p.length, kInfDist);
  EXPECT_TRUE(p.nodes.empty());
}

TEST(HlTest, SelfQueryAndSingleNode) {
  const Graph g = testing::MakeRoadGraph(8, 1);
  const HlIndex index = HlIndex::Build(g);
  EXPECT_EQ(index.Distance(3, 3), 0u);
  const PathResult p = index.Path(3, 3);
  EXPECT_EQ(p.nodes, std::vector<NodeId>{3});
  EXPECT_EQ(p.length, 0u);

  const Graph single = testing::MakeSingleNodeGraph();
  const HlIndex tiny = HlIndex::Build(single);
  EXPECT_EQ(tiny.Distance(0, 0), 0u);
  EXPECT_EQ(tiny.Path(0, 0).nodes, std::vector<NodeId>{0});
}

TEST(HlTest, LabelArraysAreSortedByHubRank) {
  const Graph g = testing::MakeRoadGraph(10, 3);
  const HlIndex index = HlIndex::Build(g);
  std::size_t root_in = 0, root_out = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const auto labels :
         {index.out_table().Of(v), index.in_table().Of(v)}) {
      for (std::size_t i = 1; i < labels.size(); ++i) {
        ASSERT_LT(labels[i - 1].hub, labels[i].hub) << "node " << v;
      }
    }
    // Every node carries its own rank as a hub at distance 0 on both sides.
    for (const HlEntry& l : index.in_table().Of(v)) {
      if (l.dist == 0 && index.hub_of_rank()[l.hub] == v) ++root_in;
    }
    for (const HlEntry& l : index.out_table().Of(v)) {
      if (l.dist == 0 && index.hub_of_rank()[l.hub] == v) ++root_out;
    }
  }
  EXPECT_EQ(root_in, g.NumNodes());
  EXPECT_EQ(root_out, g.NumNodes());
  EXPECT_EQ(index.build_stats().in_labels, index.in_table().hot.size());
  EXPECT_GT(index.SizeBytes(), 0u);
}

// Checks Distance and Path against Dijkstra on every pair.
void ExpectExactEverywhere(const Graph& g, const HlIndex& index) {
  Dijkstra dijkstra(g);
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    for (NodeId t = 0; t < g.NumNodes(); ++t) {
      const Dist ref = dijkstra.Distance(s, t);
      ASSERT_EQ(index.Distance(s, t), ref) << "s=" << s << " t=" << t;
      const PathResult path = index.Path(s, t);
      ASSERT_EQ(path.length, ref) << "s=" << s << " t=" << t;
      if (ref != kInfDist) {
        ASSERT_TRUE(IsValidPath(g, path.nodes, s, t, ref))
            << "s=" << s << " t=" << t;
      }
    }
  }
}

// Checks the hub-bucket DistanceMatrix over all nodes against Dijkstra.
void ExpectMatrixExact(const Graph& g, const DistanceOracle& oracle) {
  Dijkstra dijkstra(g);
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) all[v] = v;
  const std::vector<Dist> matrix = oracle.DistanceMatrix(all, all, 2);
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    for (NodeId t = 0; t < g.NumNodes(); ++t) {
      ASSERT_EQ(matrix[s * g.NumNodes() + t], dijkstra.Distance(s, t))
          << "s=" << s << " t=" << t;
    }
  }
}

// Label distances >= 2^32 - 1 do not fit the 32-bit hot entries: they are
// stored as the sentinel with the exact value in the overflow list, and
// every query path must still answer exactly.
TEST(HlTest, OverflowDistancesStayExact) {
  const Graph base = testing::MakeHeavyWeightGraph(40, 100, 17);
  const HlIndex index = HlIndex::Build(base);
  for (const HlLabelTable* table : {&index.in_table(), &index.out_table()}) {
    ASSERT_FALSE(table->overflow.empty());
    for (const HlOverflow& o : table->overflow) {
      EXPECT_EQ(table->hot[o.pos].dist, kHlDistOverflow);
      EXPECT_GE(o.dist, Dist{kHlDistOverflow});
      EXPECT_EQ(table->DistAt(o.pos), o.dist);
    }
  }
  ExpectExactEverywhere(base, index);
  // The oracle's build is deterministic: the same labels as `index`.
  const std::unique_ptr<DistanceOracle> oracle = MakeOracle("hl", base);
  ExpectMatrixExact(base, *oracle);

  // Save/Load keeps the overflow entries.
  std::stringstream bytes;
  index.Save(bytes);
  const HlIndex loaded = HlIndex::Load(bytes);
  EXPECT_EQ(loaded.in_table(), index.in_table());
  EXPECT_EQ(loaded.out_table(), index.out_table());
  ExpectExactEverywhere(base, loaded);

  // A live update to the largest valid weight, then a frozen-order relabel.
  Graph updated = base;
  std::vector<WeightDelta> deltas;
  for (NodeId v = 0; v < updated.NumNodes(); v += 3) {
    deltas.push_back({v, updated.OutArcs(v).front().head, kMaxWeight - 1});
  }
  ASSERT_EQ(ApplyWeightDeltas(&updated, deltas).rejected, 0u);
  const HlIndex relabeled = HlIndex::RebuildWithFrozenOrder(updated, index);
  EXPECT_FALSE(relabeled.in_table().overflow.empty());
  EXPECT_FALSE(relabeled.out_table().overflow.empty());
  ExpectExactEverywhere(updated, relabeled);
  ExpectMatrixExact(updated, *oracle->RebuildWithFrozenOrder(updated));
}

// The build processes hubs in fixed rounds and commits deltas serially in
// hub-rank order, so the tables must be bit-identical at any thread count
// (what makes parallel HL rebuilds safe inside the registry's background
// build worker).
TEST(HlTest, ParallelBuildIsBitIdenticalAtAnyThreadCount) {
  const Graph road = testing::MakeRoadGraph(13, 21);
  const Graph split = testing::MakeDisconnectedGraph(40, 5);
  for (const Graph* g : {&road, &split}) {
    const HlIndex sequential = HlIndex::Build(*g, HlParams{1});
    for (const std::size_t threads : {2u, 3u, 8u}) {
      const HlIndex parallel = HlIndex::Build(*g, HlParams{threads});
      ASSERT_EQ(parallel.hub_of_rank(), sequential.hub_of_rank())
          << threads << " threads";
      for (const auto& [p, q] :
           {std::pair{&parallel.in_table(), &sequential.in_table()},
            std::pair{&parallel.out_table(), &sequential.out_table()}}) {
        ASSERT_EQ(p->first, q->first) << threads << " threads";
        ASSERT_EQ(p->hot, q->hot) << threads << " threads";
        ASSERT_EQ(p->parent, q->parent) << threads << " threads";
        ASSERT_EQ(p->overflow, q->overflow) << threads << " threads";
      }
    }
  }
}

// The windowed build holds at most O(threads) per-hub delta buffers live,
// no matter how many hubs (= nodes) the graph has.
TEST(HlTest, ParallelBuildBoundsLiveDeltaBuffers) {
  const Graph g = testing::MakeRandomGraph(300, 900, 13);
  for (const std::size_t threads : {2u, 4u}) {
    const HlIndex index = HlIndex::Build(g, HlParams{threads});
    const HlBuildStats& stats = index.build_stats();
    EXPECT_EQ(stats.label_window, 2 * threads);
    EXPECT_LE(stats.max_live_label_buffers, stats.label_window)
        << threads << " threads";
    EXPECT_GE(stats.max_live_label_buffers, 1u);
  }
}

TEST(HlTest, PruningKeepsLabelsSublinear) {
  // On a road-like graph the per-node label count must stay far below n —
  // the entire point of pruned labeling (without pruning every node would
  // carry ~n labels).
  const Graph g = testing::MakeRoadGraph(16, 4);
  const HlIndex index = HlIndex::Build(g);
  const double n = static_cast<double>(g.NumNodes());
  const double avg_in = static_cast<double>(index.build_stats().in_labels) / n;
  EXPECT_LT(avg_in, n / 4) << "pruning is not biting";
}

}  // namespace
}  // namespace ah
