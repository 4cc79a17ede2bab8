// Answer verification against independent references: one-to-all Dijkstra
// per grid source for pooled traffic, point-to-point Dijkstra for a fixed
// sample of fresh pairs, and an edge-by-edge walk for every returned path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/distance_oracle.h"
#include "graph/graph.h"
#include "inputs.h"

namespace perfbench {

/// Exact distances between every grid source and grid target on one graph
/// version: side one-to-all Dijkstra searches.
class GridReference {
 public:
  GridReference(const ah::Graph& g, const Grid& grid);
  Dist At(std::size_t pool) const { return dist_[pool]; }
  Dist At(std::size_t source_idx, std::size_t target_idx) const {
    return dist_[source_idx * side_ + target_idx];
  }

 private:
  std::size_t side_;
  std::vector<Dist> dist_;
};

/// Exact expected distance vector of a grid-drawn bulk request.
std::vector<Dist> ExpectedBulk(const GridReference& ref, const BulkReq& req);

/// A path answer is correct when its length is the expected distance and
/// its nodes are a real s -> t arc sequence in `g` whose weights sum to
/// that length; an unreachable answer must carry no nodes.
bool PathMatches(const ah::Graph& g, NodeId s, NodeId t, Dist expected,
                 Dist length, const std::vector<NodeId>& nodes);

/// What one reply is checked against. Pooled traffic: graph version v and
/// its GridReference per index v; a reply sent while its backend's confirmed
/// generation was g may come from version g - 1 or g (the reload in flight),
/// and generation 0 means the base version only. Fresh pairs: version 0 is
/// the served graph, and the kernel of each backend's pinned first epoch
/// (`sessions` and `oracles`, indexed like WorkloadSpec::backends) gives the
/// expected answers.
struct References {
  bool pooled = false;
  std::vector<const ah::Graph*> versions;
  std::vector<const GridReference*> grids;
  std::vector<ah::QuerySession*> sessions;
  std::vector<const ah::DistanceOracle*> oracles;
};

/// A `d` or `p` reply: `dist` is the distance or path length, `path` the
/// path's nodes (`p` only).
bool VerifyPoint(const References& refs, const PointReq& req,
                 std::uint32_t gen, Dist dist,
                 const std::vector<NodeId>* path);

/// A `b` or `m` reply, given as its distance count and HashDists
/// fingerprint.
bool VerifyBulk(const References& refs, const BulkReq& req, std::uint32_t gen,
                std::size_t count, std::uint64_t hash);

}  // namespace perfbench
