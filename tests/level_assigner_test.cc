#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/ah_index.h"
#include "core/level_assigner.h"
#include "test_util.h"

namespace ah {
namespace {

struct Assigned {
  Graph graph;
  GridHierarchy grids;
  LevelAssignment assignment;
};

Assigned Assign(std::uint32_t side, std::uint64_t seed) {
  Graph g = testing::MakeRoadGraph(side, seed);
  GridHierarchy gh(g.Coords(), 12);
  const Nuance nuance(seed);
  LevelAssignment a = AssignLevels(g, gh, nuance);
  return Assigned{std::move(g), std::move(gh), std::move(a)};
}

TEST(LevelAssignerTest, LevelsWithinRange) {
  Assigned a = Assign(20, 1);
  ASSERT_EQ(a.assignment.level.size(), a.graph.NumNodes());
  for (Level lv : a.assignment.level) {
    EXPECT_GE(lv, 0);
    EXPECT_LE(lv, a.assignment.max_level);
  }
  EXPECT_LE(a.assignment.max_level, a.grids.Depth());
}

TEST(LevelAssignerTest, LevelPopulationShrinksUpward) {
  Assigned a = Assign(28, 2);
  ASSERT_GE(a.assignment.max_level, 2);
  std::vector<std::size_t> histogram(a.assignment.max_level + 1, 0);
  for (Level lv : a.assignment.level) ++histogram[lv];
  // The raw assignment promotes most through-traffic nodes to level >= 1
  // (the §4.4 downgrading pass later thins the hierarchy); what must hold
  // here is that the population shrinks toward the top.
  EXPECT_GT(histogram[0], 0u);
  EXPECT_LT(histogram[a.assignment.max_level],
            a.graph.NumNodes() / 4);
  EXPECT_LT(histogram[a.assignment.max_level], histogram[1]);
}

TEST(LevelAssignerTest, CoresPerIterationDecrease) {
  Assigned a = Assign(24, 3);
  const auto& cores = a.assignment.cores_per_iteration;
  ASSERT_FALSE(cores.empty());
  for (std::size_t i = 1; i < cores.size(); ++i) {
    EXPECT_LE(cores[i], cores[i - 1]);
  }
  EXPECT_LT(cores.front(), a.graph.NumNodes());
}

TEST(LevelAssignerTest, PseudoArterialEndpointsReachTheirLevel) {
  Assigned a = Assign(20, 4);
  for (std::size_t i = 1; i <= a.assignment.pseudo_arterial.size(); ++i) {
    for (const auto& [u, v] : a.assignment.pseudo_arterial[i - 1]) {
      // An endpoint of an S_i edge was made a level-i core, so its final
      // level is at least i.
      EXPECT_GE(a.assignment.level[u], static_cast<Level>(i));
      EXPECT_GE(a.assignment.level[v], static_cast<Level>(i));
    }
  }
}

TEST(LevelAssignerTest, Deterministic) {
  Assigned a = Assign(16, 5);
  Assigned b = Assign(16, 5);
  EXPECT_EQ(a.assignment.level, b.assignment.level);
  EXPECT_EQ(a.assignment.max_level, b.assignment.max_level);
}

// AhIndex::Save with its five wall-clock build timings zeroed; every other
// byte is a function of the graph alone.
std::string ImageWithoutTimings(const AhIndex& index) {
  std::ostringstream out;
  index.Save(out);
  std::string bytes = out.str();
  // The image ends with the timings, two u64 counts, two i32 levels and
  // the nodes_per_level vector (u64 length, then u64 entries).
  const std::size_t trailer =
      5 * sizeof(double) + 2 * 8 + 2 * 4 + 8 +
      8 * index.build_stats().nodes_per_level.size();
  const auto timings = bytes.end() - static_cast<std::ptrdiff_t>(trailer);
  std::fill(timings, timings + 5 * sizeof(double), '\0');
  return bytes;
}

// Window chunks shrink to one window on levels with fewer than 64 windows
// per thread; the sorted, deduplicated merge keeps the assignment and the
// AH image identical at any thread count.
TEST(LevelAssignerTest, BitIdenticalAtAnyThreadCount) {
  const Graph g = testing::MakeRoadGraph(32, 6);
  const GridHierarchy gh(g.Coords(), 12);
  const Nuance nuance(6);
  std::vector<LevelAssignment> runs;
  for (const char* threads : {"1", "2", "4"}) {
    setenv("AH_THREADS", threads, 1);
    runs.push_back(AssignLevels(g, gh, nuance));
  }
  setenv("AH_THREADS", "1", 1);
  const std::string serial_image = ImageWithoutTimings(AhIndex::Build(g));
  setenv("AH_THREADS", "4", 1);
  const std::string parallel_image = ImageWithoutTimings(AhIndex::Build(g));
  unsetenv("AH_THREADS");

  // The graph is deep enough for one-window chunks at 2 and 4 threads.
  const std::vector<LevelIterationStats>& iterations = runs[0].iterations;
  EXPECT_TRUE(std::any_of(iterations.begin(), iterations.end(),
                          [](const LevelIterationStats& it) {
                            return it.windows > 1 && it.windows < 2 * 64;
                          }));
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].level, runs[0].level) << "run " << r;
    EXPECT_EQ(runs[r].pseudo_arterial, runs[0].pseudo_arterial) << "run " << r;
    EXPECT_EQ(runs[r].cores_per_iteration, runs[0].cores_per_iteration)
        << "run " << r;
    ASSERT_EQ(runs[r].iterations.size(), iterations.size()) << "run " << r;
    for (std::size_t i = 0; i < iterations.size(); ++i) {
      EXPECT_EQ(runs[r].iterations[i].windows, iterations[i].windows);
      EXPECT_EQ(runs[r].iterations[i].searches, iterations[i].searches);
    }
  }
  EXPECT_EQ(serial_image, parallel_image);
}

TEST(LevelAssignerTest, ProducesMultipleLevelsOnRoadNetworks) {
  Assigned a = Assign(32, 6);
  EXPECT_GE(a.assignment.max_level, 2);
}

TEST(LevelAssignerTest, TinyGraphDoesNotCrash) {
  GraphBuilder b(2);
  b.AddNode({0, 0});
  b.AddNode({1000, 1000});
  b.AddBidirectional(0, 1, 5);
  Graph g = b.Build();
  GridHierarchy gh(g.Coords(), 6);
  const Nuance nuance(1);
  const LevelAssignment a = AssignLevels(g, gh, nuance);
  EXPECT_EQ(a.level.size(), 2u);
}

}  // namespace
}  // namespace ah
