// Shared helpers for the test suites: small deterministic graph factories.
#pragma once

#include <vector>

#include "gen/road_gen.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ah::testing {

/// A strongly connected random graph: a Hamiltonian cycle plus `extra`
/// random arcs, with random coordinates and weights in [1, 100].
/// Not road-like at all — exercises the assumption-free code paths.
inline Graph MakeRandomGraph(std::size_t n, std::size_t extra,
                             std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.AddNode(Point{static_cast<std::int32_t>(rng.Uniform(100000)),
                          static_cast<std::int32_t>(rng.Uniform(100000))});
  }
  for (std::size_t i = 0; i < n; ++i) {
    builder.AddArc(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                   static_cast<Weight>(1 + rng.Uniform(100)));
  }
  for (std::size_t i = 0; i < extra; ++i) {
    const NodeId a = static_cast<NodeId>(rng.Uniform(n));
    const NodeId b = static_cast<NodeId>(rng.Uniform(n));
    if (a == b) continue;
    builder.AddArc(a, b, static_cast<Weight>(1 + rng.Uniform(100)));
  }
  return builder.Build();
}

/// MakeRandomGraph with every even node's out-arcs reweighted to within
/// 1000 of kMaxWeight - 1, the largest valid weight: most multi-arc
/// distances exceed 2^32 - 2, so 32-bit distance storage must fall back to
/// its overflow path.
inline Graph MakeHeavyWeightGraph(std::size_t n, std::size_t extra,
                                  std::uint64_t seed) {
  Graph g = MakeRandomGraph(n, extra, seed);
  Rng rng(seed);
  for (NodeId v = 0; v < n; v += 2) {
    std::vector<NodeId> heads;
    for (const Arc& arc : g.OutArcs(v)) heads.push_back(arc.head);
    for (const NodeId head : heads) {
      g.SetArcWeight(v, head,
                     static_cast<Weight>(kMaxWeight - 1 - rng.Uniform(1000)));
    }
  }
  return g;
}

/// A small road-like network from the synthetic generator (strongly
/// connected, hierarchical road classes) — the inputs AH's pruned query
/// mode is specified for.
inline Graph MakeRoadGraph(std::uint32_t side, std::uint64_t seed) {
  RoadGenParams params;
  params.cols = side;
  params.rows = side;
  params.seed = seed;
  return GenerateRoadNetwork(params);
}

/// Two strongly connected random clusters with no arcs between them —
/// every cross-cluster query must answer "unreachable" (kInfDist, no path).
/// Nodes [0, cluster) form one component, [cluster, 2*cluster) the other;
/// the clusters are geometrically separated so grid-based methods see two
/// far-apart blobs.
inline Graph MakeDisconnectedGraph(std::size_t cluster, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(2 * cluster);
  for (std::size_t c = 0; c < 2; ++c) {
    const std::int32_t x0 = c == 0 ? 0 : 1000000;
    for (std::size_t i = 0; i < cluster; ++i) {
      builder.AddNode(Point{x0 + static_cast<std::int32_t>(rng.Uniform(100000)),
                            static_cast<std::int32_t>(rng.Uniform(100000))});
    }
    const NodeId base = static_cast<NodeId>(c * cluster);
    for (std::size_t i = 0; i < cluster; ++i) {
      builder.AddArc(base + static_cast<NodeId>(i),
                     base + static_cast<NodeId>((i + 1) % cluster),
                     static_cast<Weight>(1 + rng.Uniform(100)));
    }
    for (std::size_t i = 0; i < 2 * cluster; ++i) {
      const NodeId a = base + static_cast<NodeId>(rng.Uniform(cluster));
      const NodeId b = base + static_cast<NodeId>(rng.Uniform(cluster));
      if (a == b) continue;
      builder.AddArc(a, b, static_cast<Weight>(1 + rng.Uniform(100)));
    }
  }
  return builder.Build();
}

/// The degenerate one-node, zero-arc network: every backend must build on it
/// and answer d(0, 0) = 0.
inline Graph MakeSingleNodeGraph() {
  GraphBuilder builder(1);
  builder.AddNode(Point{0, 0});
  return builder.Build();
}

/// A strongly connected cycle where every arc also gets heavier parallel
/// duplicates and a few self-loops — exercises the builder's collapse rules
/// (parallel arcs keep the minimum weight, self-loops are dropped) and the
/// backends' tolerance of multi-arc inputs.
inline Graph MakeParallelArcGraph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.AddNode(Point{static_cast<std::int32_t>(rng.Uniform(100000)),
                          static_cast<std::int32_t>(rng.Uniform(100000))});
  }
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId a = static_cast<NodeId>(i);
    const NodeId b = static_cast<NodeId>((i + 1) % n);
    const Weight w = static_cast<Weight>(1 + rng.Uniform(50));
    builder.AddArc(a, b, w);
    // Parallel duplicates, at least as heavy; only the lightest survives.
    builder.AddArc(a, b, static_cast<Weight>(w + rng.Uniform(60)));
    builder.AddArc(a, b, static_cast<Weight>(w + 1 + rng.Uniform(60)));
    if (i % 3 == 0) {
      builder.AddArc(a, a, static_cast<Weight>(1 + rng.Uniform(20)));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId a = static_cast<NodeId>(rng.Uniform(n));
    const NodeId b = static_cast<NodeId>(rng.Uniform(n));
    if (a == b) continue;
    const Weight w = static_cast<Weight>(1 + rng.Uniform(50));
    builder.AddArc(a, b, w);
    builder.AddArc(a, b, static_cast<Weight>(w + rng.Uniform(40)));
  }
  return builder.Build();
}

}  // namespace ah::testing
