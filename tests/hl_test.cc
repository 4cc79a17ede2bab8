// Hub labeling: exactness against Dijkstra (including label distances that
// overflow the 32-bit hot entries), label-array invariants, native path
// recovery, labels equal to a reference pruned labeling in the same hub
// order, and parents that step one arc toward their hub.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
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

// One node's reference label: (hub rank, exact distance), ascending rank.
using RefLabel = std::vector<std::pair<Rank, Dist>>;

Dist RefQuery(const RefLabel& out, const RefLabel& in) {
  Dist best = kInfDist;
  for (std::size_t i = 0, j = 0; i < out.size() && j < in.size();) {
    if (out[i].first == in[j].first) {
      best = std::min(best, out[i++].second + in[j++].second);
    } else if (out[i].first < in[j].first) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

// Sequential pruned landmark labeling in `hub_of_rank` order: one pruned
// Dijkstra per hub and direction, a node pruned when the labels of earlier
// hubs already give at most its distance. Returns {in, out} labels.
std::pair<std::vector<RefLabel>, std::vector<RefLabel>> PrunedLabeling(
    const Graph& g, const std::vector<NodeId>& hub_of_rank) {
  const std::size_t n = g.NumNodes();
  std::vector<RefLabel> in(n), out(n);
  std::vector<Dist> dist(n);
  for (Rank r = 0; r < n; ++r) {
    const NodeId hub = hub_of_rank[r];
    for (const bool forward : {true, false}) {
      std::vector<RefLabel>& labeled = forward ? in : out;
      std::fill(dist.begin(), dist.end(), kInfDist);
      using Item = std::pair<Dist, NodeId>;
      std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
      dist[hub] = 0;
      heap.push({0, hub});
      while (!heap.empty()) {
        const auto [d, v] = heap.top();
        heap.pop();
        if (d != dist[v]) continue;
        const Dist covered =
            forward ? RefQuery(out[hub], in[v]) : RefQuery(out[v], in[hub]);
        if (covered <= d) continue;
        labeled[v].push_back({r, d});
        for (const Arc& a : forward ? g.OutArcs(v) : g.InArcs(v)) {
          if (d + a.weight < dist[a.head]) {
            dist[a.head] = d + a.weight;
            heap.push({dist[a.head], a.head});
          }
        }
      }
    }
  }
  return {std::move(in), std::move(out)};
}

// The table's offsets, hot entries and overflow list equal the reference
// labels (parents may differ on ties and are checked separately).
void ExpectTableEquals(const HlLabelTable& table,
                       const std::vector<RefLabel>& ref) {
  HlLabelTable expected;
  expected.first.push_back(0);
  for (const RefLabel& label : ref) {
    for (const auto& [hub, dist] : label) {
      if (dist >= kHlDistOverflow) {
        expected.overflow.push_back({expected.hot.size(), dist});
        expected.hot.push_back({hub, kHlDistOverflow});
      } else {
        expected.hot.push_back({hub, static_cast<std::uint32_t>(dist)});
      }
    }
    expected.first.push_back(expected.hot.size());
  }
  ASSERT_EQ(table.first, expected.first);
  ASSERT_EQ(table.hot, expected.hot);
  ASSERT_EQ(table.overflow, expected.overflow);
}

void ExpectPrunedLabeling(const Graph& g, const HlIndex& index) {
  const auto [in, out] = PrunedLabeling(g, index.hub_of_rank());
  ExpectTableEquals(index.in_table(), in);
  ExpectTableEquals(index.out_table(), out);
}

// Every label entry (v, h, d) with parent p: the arc v→p (p→v for
// in-labels) exists and p carries h at d minus its weight, so the Path walk
// moves one arc toward the hub per step. Only the hub's own entry has no
// parent.
void ExpectParentsStepTowardHub(const Graph& g, const HlIndex& index) {
  for (const bool forward : {true, false}) {
    const HlLabelTable& table = forward ? index.out_table() : index.in_table();
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      for (std::uint64_t i = table.first[v]; i < table.first[v + 1]; ++i) {
        const Rank hub = table.hot[i].hub;
        const NodeId p = table.parent[i];
        if (index.hub_of_rank()[hub] == v) {
          ASSERT_EQ(p, kInvalidNode) << "own entry of " << v;
          continue;
        }
        ASSERT_NE(p, kInvalidNode) << "v=" << v << " hub=" << hub;
        const Weight w = forward ? g.ArcWeight(v, p) : g.ArcWeight(p, v);
        ASSERT_NE(w, kMaxWeight) << "no arc between " << v << " and " << p;
        const std::span<const HlEntry> labels = table.Of(p);
        const auto it = std::lower_bound(
            labels.begin(), labels.end(), hub,
            [](const HlEntry& e, Rank r) { return e.hub < r; });
        ASSERT_TRUE(it != labels.end() && it->hub == hub)
            << "parent " << p << " of " << v << " lacks hub " << hub;
        EXPECT_EQ(table.DistAt(table.first[p] + (it - labels.begin())),
                  table.DistAt(i) - w)
            << "v=" << v << " p=" << p << " hub=" << hub;
      }
    }
  }
}

// Updates every third node's first out-arc: a deterministic weight delta.
Graph Reweighted(const Graph& base, std::uint64_t seed) {
  Graph updated = base;
  Rng rng(seed);
  std::vector<WeightDelta> deltas;
  for (NodeId v = 0; v < updated.NumNodes(); v += 3) {
    if (updated.OutArcs(v).empty()) continue;
    deltas.push_back({v, updated.OutArcs(v).front().head,
                      static_cast<Weight>(1 + rng.Uniform(200))});
  }
  EXPECT_EQ(ApplyWeightDeltas(&updated, deltas).rejected, 0u);
  return updated;
}

// The labels derived from the CH hierarchy are the canonical labels of its
// order: exactly what sequential pruned labeling in that hub order keeps,
// at the same distances — also after a frozen-order relabel.
TEST_P(HlSeedTest, DerivedLabelsEqualPrunedLabeling) {
  const Graph g = testing::MakeRoadGraph(14, GetParam());
  const HlIndex index = HlIndex::Build(g);
  ExpectPrunedLabeling(g, index);
  ExpectParentsStepTowardHub(g, index);

  const Graph updated = Reweighted(g, GetParam());
  const HlIndex relabeled = HlIndex::RebuildWithFrozenOrder(updated, index);
  EXPECT_EQ(relabeled.hub_of_rank(), index.hub_of_rank());
  ExpectPrunedLabeling(updated, relabeled);
  ExpectParentsStepTowardHub(updated, relabeled);
}

TEST(HlTest, DerivedLabelsEqualPrunedLabelingOnAdversarialGraphs) {
  const Graph graphs[] = {
      testing::MakeRandomGraph(60, 180, 7),
      testing::MakeDisconnectedGraph(25, 8),
      testing::MakeParallelArcGraph(24, 9),
      testing::MakeDisconnectedGraph(40, 5),
      testing::MakeHeavyWeightGraph(40, 100, 17),
  };
  for (const Graph& g : graphs) {
    SCOPED_TRACE(::testing::Message() << "n=" << g.NumNodes());
    const HlIndex index = HlIndex::Build(g);
    ExpectPrunedLabeling(g, index);
    ExpectParentsStepTowardHub(g, index);

    const Graph updated = Reweighted(g, g.NumNodes());
    const HlIndex relabeled = HlIndex::RebuildWithFrozenOrder(updated, index);
    ExpectPrunedLabeling(updated, relabeled);
    ExpectParentsStepTowardHub(updated, relabeled);
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
