#include "verify.h"

#include <algorithm>
#include <utility>

#include "routing/dijkstra.h"
#include "routing/path.h"

namespace perfbench {

GridReference::GridReference(const ah::Graph& g, const Grid& grid)
    : side_(grid.side), dist_(grid.side * grid.side, ah::kInfDist) {
  ah::Dijkstra dijkstra(g);
  for (std::size_t i = 0; i < side_; ++i) {
    dijkstra.Run(grid.sources[i]);
    for (std::size_t j = 0; j < side_; ++j) {
      dist_[i * side_ + j] = dijkstra.DistTo(grid.targets[j]);
    }
  }
}

std::vector<Dist> ExpectedBulk(const GridReference& ref, const BulkReq& req) {
  std::vector<Dist> out;
  if (req.cls == Cls::kBatch) {
    out.reserve(req.pair_pool.size());
    for (const std::int32_t p : req.pair_pool) {
      out.push_back(ref.At(static_cast<std::size_t>(p)));
    }
    return out;
  }
  out.reserve(req.source_idx.size() * req.target_idx.size());
  for (const std::int32_t i : req.source_idx) {
    for (const std::int32_t j : req.target_idx) {
      out.push_back(
          ref.At(static_cast<std::size_t>(i), static_cast<std::size_t>(j)));
    }
  }
  return out;
}

bool PathMatches(const ah::Graph& g, NodeId s, NodeId t, Dist expected,
                 Dist length, const std::vector<NodeId>& nodes) {
  if (length != expected) return false;
  if (expected == ah::kInfDist) return nodes.empty();
  return ah::IsValidPath(g, nodes, s, t, length);
}

namespace {

// The graph versions a reply sent at confirmed generation `gen` may come
// from, as [lo, hi].
std::pair<std::size_t, std::size_t> Window(const References& refs,
                                           std::uint32_t gen) {
  if (!refs.pooled || refs.versions.empty()) return {0, 0};
  const std::size_t lo = std::min<std::size_t>(gen > 0 ? gen - 1 : 0,
                                               refs.versions.size() - 1);
  return {lo, std::min<std::size_t>(lo + 1, refs.versions.size() - 1)};
}

}  // namespace

bool VerifyPoint(const References& refs, const PointReq& req,
                 std::uint32_t gen, Dist dist,
                 const std::vector<NodeId>* path) {
  const auto [lo, hi] = Window(refs, gen);
  for (std::size_t v = lo; v <= hi; ++v) {
    const Dist expected =
        refs.pooled ? refs.grids[v]->At(static_cast<std::size_t>(req.pool))
                    : refs.sessions[req.backend]->Distance(req.s, req.t);
    const bool ok = req.cls == Cls::kDist
                        ? dist == expected
                        : path != nullptr && PathMatches(*refs.versions[v], req.s,
                                                         req.t, expected, dist, *path);
    if (ok) return true;
  }
  return false;
}

bool VerifyBulk(const References& refs, const BulkReq& req, std::uint32_t gen,
                std::size_t count, std::uint64_t hash) {
  const auto [lo, hi] = Window(refs, gen);
  for (std::size_t v = lo; v <= hi; ++v) {
    std::vector<Dist> expected;
    if (refs.pooled) {
      expected = ExpectedBulk(*refs.grids[v], req);
    } else if (req.cls == Cls::kBatch) {
      for (const Pair& p : req.pairs) {
        expected.push_back(refs.sessions[req.backend]->Distance(p.first, p.second));
      }
    } else {
      expected = refs.oracles[req.backend]->DistanceMatrix(req.sources,
                                                           req.targets, 1);
    }
    if (count == expected.size() &&
        hash == HashDists(expected.data(), expected.size())) {
      return true;
    }
  }
  return false;
}

}  // namespace perfbench
