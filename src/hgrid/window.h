// 4×4-cell windows ("regions B") over a SquareGrid: strips, bisectors, and
// deduplicated enumeration of the windows that contain nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "geo/grid.h"
#include "geo/point.h"
#include "util/types.h"

namespace ah {

/// Which bisector of a window a spanning path crosses.
enum class BisectorAxis { kVertical, kHorizontal };

/// A 4×4-cell region anchored at cell (ax, ay): it covers cells
/// [ax, ax+3] × [ay, ay+3]. Anchors may take any integer value (windows
/// slide one cell at a time, per "any region B with 4×4 grid cells").
struct Window {
  std::int32_t ax = 0;
  std::int32_t ay = 0;

  bool ContainsCell(const Cell& c) const {
    return c.cx >= ax && c.cx <= ax + 3 && c.cy >= ay && c.cy <= ay + 3;
  }

  /// Relative column of a cell: may be negative / >3 for outside cells.
  std::int32_t RelCol(const Cell& c) const { return c.cx - ax; }
  std::int32_t RelRow(const Cell& c) const { return c.cy - ay; }

  /// West / east / south / north strip membership (only for inside cells).
  bool InWestStrip(const Cell& c) const {
    return ContainsCell(c) && RelCol(c) == 0;
  }
  bool InEastStrip(const Cell& c) const {
    return ContainsCell(c) && RelCol(c) == 3;
  }
  bool InSouthStrip(const Cell& c) const {
    return ContainsCell(c) && RelRow(c) == 0;
  }
  bool InNorthStrip(const Cell& c) const {
    return ContainsCell(c) && RelRow(c) == 3;
  }

  /// Side of the vertical bisector (between columns ax+1 and ax+2):
  /// -1 = west, +1 = east. Defined for any cell, inside or out.
  int VerticalSide(const Cell& c) const { return RelCol(c) <= 1 ? -1 : +1; }
  /// Side of the horizontal bisector: -1 = south, +1 = north.
  int HorizontalSide(const Cell& c) const { return RelRow(c) <= 1 ? -1 : +1; }

  /// True if the segment between two cells crosses the given bisector (cell
  /// discretization of "edge intersects lb").
  bool CrossesBisector(const Cell& a, const Cell& b, BisectorAxis axis) const {
    return axis == BisectorAxis::kVertical
               ? VerticalSide(a) != VerticalSide(b)
               : HorizontalSide(a) != HorizontalSide(b);
  }

  /// Spanning-path endpoint test (Definition 1): the endpoints must lie on
  /// different sides of the bisector and neither in a cell adjacent to it.
  /// For the vertical bisector the adjacent columns are relative 1 and 2, so
  /// qualified endpoints sit at relative column <= 0 and >= 3.
  bool QualifiesAsSpanningEndpoints(const Cell& a, const Cell& b,
                                    BisectorAxis axis) const {
    if (axis == BisectorAxis::kVertical) {
      const std::int32_t ca = RelCol(a);
      const std::int32_t cb = RelCol(b);
      return (ca <= 0 && cb >= 3) || (cb <= 0 && ca >= 3);
    }
    const std::int32_t ra = RelRow(a);
    const std::int32_t rb = RelRow(b);
    return (ra <= 0 && rb >= 3) || (rb <= 0 && ra >= 3);
  }

  friend bool operator==(const Window& a, const Window& b) {
    return a.ax == b.ax && a.ay == b.ay;
  }
};

/// Packs a window anchor into a hashable key.
inline std::uint64_t WindowKey(const Window& w) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(w.ax)) << 32) |
         static_cast<std::uint32_t>(w.ay);
}

/// Buckets a set of nodes by their grid cell for O(1) cell → nodes lookup
/// inside window processing.
class CellIndex {
 public:
  CellIndex() = default;

  /// Indexes `nodes` (any id set) located at coords[node].
  CellIndex(const SquareGrid& grid, const std::vector<Point>& coords,
            const std::vector<NodeId>& nodes);

  /// Nodes in cell c (empty span if none).
  const std::vector<NodeId>& NodesIn(const Cell& c) const;

  /// All distinct occupied cells.
  const std::vector<Cell>& OccupiedCells() const { return occupied_; }

  /// Collects the nodes contained in `w` into `out` (cleared first).
  void CollectWindowNodes(const Window& w, std::vector<NodeId>* out) const;

 private:
  std::unordered_map<std::uint64_t, std::vector<NodeId>> buckets_;
  std::vector<Cell> occupied_;
  static const std::vector<NodeId> kEmpty;
};

/// Enumerates every distinct 4×4 window of `grid` that contains at least one
/// occupied cell of `index`, clipped so windows stay within the grid when
/// possible (anchors in [0, cells_per_side-4]; for grids smaller than 4 cells
/// a single window at the origin is produced).
///
/// `stride` restricts anchors to multiples of the stride (1 = every offset,
/// the paper's "any region"; 2 = half-overlapping windows). Strides above 1
/// are only a preprocessing-speed knob: they miss arterial edges that lie in
/// the skipped windows, which breaks the Lemma-3 property AH's pruned query
/// relies on.
std::vector<Window> EnumerateWindows(const SquareGrid& grid,
                                     const CellIndex& index,
                                     std::int32_t stride = 1);

}  // namespace ah
