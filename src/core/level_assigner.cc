#include "core/level_assigner.h"

#include <algorithm>
#include <memory>

#include "arterial/local_paths.h"
#include "graph/light_graph.h"
#include "hgrid/window.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace ah {

LevelAssignment AssignLevels(const Graph& g, const GridHierarchy& gh,
                             const Nuance& nuance,
                             const LevelAssignParams& params) {
  const std::size_t n = g.NumNodes();
  const Level h = gh.Depth();

  LevelAssignment result;
  result.level.assign(n, 0);
  result.pseudo_arterial.resize(h);

  std::vector<NodeId> active(n);
  for (NodeId v = 0; v < n; ++v) active[v] = v;
  std::vector<HierArc> arcs = ArcsOf(g);

  std::vector<std::uint32_t> core_stamp(n, 0);
  std::uint32_t iteration = 0;

  for (Level i = 1; i <= h; ++i) {
    if (active.size() < params.min_active_nodes) break;
    ++iteration;
    const Timer timer;

    const LightGraph lg(n, arcs);
    const SquareGrid& grid = gh.Grid(i);
    const CellIndex cells(grid, g.Coords(), active);

    // Collect pseudo-arterial edges over every non-empty window of R_i.
    // Windows are independent; process them on worker threads (one
    // WindowProcessor per thread) and merge. The final sort+dedup makes the
    // result independent of scheduling. Top levels have few but costly
    // windows, so chunks shrink with the window count until every thread
    // gets work.
    const std::vector<Window> windows =
        EnumerateWindows(grid, cells, params.window_stride);
    const std::size_t num_threads = WorkerThreads();
    const std::size_t chunk_size = std::clamp<std::size_t>(
        windows.size() / (num_threads * 64), 1, 64);
    std::vector<std::unique_ptr<WindowProcessor>> processors(num_threads);
    std::vector<std::vector<std::pair<NodeId, NodeId>>> partial(num_threads);
    ParallelChunks(
        windows.size(), chunk_size,
        [&](std::size_t, std::size_t begin, std::size_t end,
            std::size_t tid) {
          if (!processors[tid]) {
            processors[tid] = std::make_unique<WindowProcessor>(
                lg, g.Coords(), nuance);
          }
          for (std::size_t wi = begin; wi < end; ++wi) {
            for (const ArterialEdge& e :
                 processors[tid]->Process(grid, windows[wi], cells)) {
              partial[tid].emplace_back(e.tail, e.head);
            }
          }
        },
        num_threads);
    LevelIterationStats& stats = result.iterations.emplace_back();
    stats.windows = windows.size();
    for (const auto& processor : processors) {
      if (processor) stats.searches += processor->NumSearches();
    }
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (auto& p : partial) {
      edges.insert(edges.end(), p.begin(), p.end());
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    // Promote endpoints to level-i cores.
    std::vector<NodeId> cores;
    for (const auto& [u, v] : edges) {
      for (NodeId x : {u, v}) {
        if (core_stamp[x] != iteration) {
          core_stamp[x] = iteration;
          cores.push_back(x);
        }
      }
    }
    result.pseudo_arterial[i - 1] = std::move(edges);
    stats.seconds = timer.Seconds();
    if (cores.empty()) break;  // Nothing climbs higher; levels are final.

    for (NodeId v : cores) result.level[v] = i;
    result.max_level = i;
    result.cores_per_iteration.push_back(cores.size());

    if (i == h) break;  // No further reduction needed.

    // Reduce to the overlay on the cores: contract non-cores, cheapest
    // (lowest-degree) first to curb shortcut growth.
    std::vector<NodeId> to_remove;
    to_remove.reserve(active.size() - cores.size());
    for (NodeId v : active) {
      if (core_stamp[v] != iteration) to_remove.push_back(v);
    }
    std::sort(to_remove.begin(), to_remove.end(), [&](NodeId a, NodeId b) {
      const std::size_t da = lg.OutArcs(a).size() + lg.InArcs(a).size();
      const std::size_t db = lg.OutArcs(b).size() + lg.InArcs(b).size();
      if (da != db) return da < db;
      return a < b;
    });
    arcs = ContractNodes(n, arcs, to_remove, params.contraction);
    std::sort(cores.begin(), cores.end());
    active = std::move(cores);
    stats.seconds = timer.Seconds();
  }
  return result;
}

}  // namespace ah
