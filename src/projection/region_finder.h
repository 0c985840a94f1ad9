// Identification of spreading regions for P_C: cluster overfilled bins and
// grow each cluster into the smallest rectangular bin sub-array whose total
// utilization meets the target γ (paper Section 5: "first localizes the
// changes ... to the smallest rectangular grid-cell sub-arrays that satisfy
// a given target utilization/density limit").
#pragma once

#include <vector>

#include "density/grid.h"

namespace complx {

/// Bin-aligned sub-array expressed in bin indices [i0, i1] x [j0, j1].
struct BinSpan {
  size_t i0 = 0, j0 = 0, i1 = 0, j1 = 0;
};

/// Returns disjoint spreading regions (in core coordinates) that cover all
/// overfilled bins and have utilization <= gamma each (when expandable).
/// Overlapping expansions are merged and re-expanded; after a merge only
/// pairs involving the merged span are rechecked, in the order a full
/// restart of the pair scan would visit them — O(n²) pair work instead of
/// O(n³), with the same merge sequence (test_region_finder keeps the
/// restart-after-every-merge scan as its reference).
std::vector<Rect> find_spreading_regions(const DensityGrid& grid,
                                         double gamma);

}  // namespace complx
