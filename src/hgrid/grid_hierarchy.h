// The grid stack R_1 .. R_h of Section 3.1.
//
// R_h is the 4×4 grid that tightly covers the network; each finer grid splits
// every cell in four, so R_i has 2^(h+2-i) × 2^(h+2-i) cells. The paper picks
// h so that each R_1 cell holds at most one node, which bounds
// h ≤ log2(dmax/dmin) − 1. Real data may place distinct nodes arbitrarily
// close together, so we choose the smallest depth at which almost every
// occupied R_1 cell is single-occupancy: a small tolerated fraction of
// shared cells, plus a hard cap on h, because insisting on one node per cell
// would let two near-coincident nodes force an arbitrarily deep stack.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/grid.h"
#include "geo/point.h"
#include "util/types.h"

namespace ah {

class GridHierarchy {
 public:
  /// Empty placeholder (Depth() == 0); assign a real instance before use.
  GridHierarchy() : depth_(0) {}

  /// Builds the stack over the bounding square of `coords`.
  ///
  /// `max_depth` caps h; `collision_tolerance` is the admissible fraction of
  /// occupied R_1 cells containing more than one node.
  explicit GridHierarchy(const std::vector<Point>& coords,
                         std::int32_t max_depth = 18,
                         double collision_tolerance = 0.05);

  /// Number of grid levels h (grids are indexed 1..h; 1 = finest).
  std::int32_t Depth() const { return depth_; }

  /// Grid R_i. Precondition: 1 <= i <= Depth().
  const SquareGrid& Grid(std::int32_t i) const { return grids_[i - 1]; }

  /// Cells per side of R_i: 2^(h+2-i).
  std::int32_t CellsPerSide(std::int32_t i) const {
    return Grid(i).cells_per_side();
  }

  /// Cell of point p in grid R_i.
  Cell CellOf(std::int32_t i, const Point& p) const {
    return Grid(i).CellOf(p);
  }

  /// The coarsest level j (largest index) at which no 3×3-cell region covers
  /// both points — the level where the two search frontiers of a query must
  /// meet (Lemma 3). Returns 0 when even R_1 covers them in a 3×3 block.
  std::int32_t SeparationLevel(const Point& a, const Point& b) const;

  /// Fraction of occupied R_1 cells with more than one node (diagnostic).
  double FinestCollisionFraction() const { return collision_fraction_; }

  /// Bytes of the in-memory representation (index-size reporting).
  std::size_t SizeBytes() const {
    return sizeof(*this) + grids_.size() * sizeof(SquareGrid);
  }

 private:
  std::int32_t depth_ = 1;
  std::vector<SquareGrid> grids_;  // grids_[i-1] = R_i.
  double collision_fraction_ = 0.0;
};

}  // namespace ah
