// Top-down geometric partitioning with 1-D spreading — the computational
// core of the feasibility projection P_C (paper Section 5 and S2).
//
// Within a spreading region, cells are recursively bipartitioned at their
// area median; the region is cut where the *capacity* (γ-scaled free area)
// splits in the same proportion, and cell coordinates are piecewise-linearly
// rescaled into their side. Relative order along the cut axis is preserved
// at every step — this is what makes each pass a convex optimization in the
// neighbor-distance variables δ_i (Section S2) and underlies the projection's
// empirical self-consistency.
#pragma once

#include <vector>

#include "density/grid.h"
#include "projection/mote.h"

namespace complx {

struct SpreaderOptions {
  double gamma = 1.0;       ///< target utilization within the region
  int terminal_motes = 24;  ///< stop recursion at this many motes
};

class Spreader {
 public:
  /// `grid` provides the capacity field (fixed blockage already subtracted).
  Spreader(const DensityGrid& grid, const SpreaderOptions& opts)
      : grid_(grid), opts_(opts) {}

  /// Spreads the given motes (in place) so their density inside `region`
  /// approaches uniform γ-utilization. Motes must have centers in `region`.
  void spread(const Rect& region, std::vector<Mote*>& motes) const;

 private:
  void recurse(const Rect& region, std::vector<Mote*>& motes,
               int depth) const;
  void terminal_spread(const Rect& region, std::vector<Mote*>& motes) const;

  const DensityGrid& grid_;
  SpreaderOptions opts_;
};

}  // namespace complx
