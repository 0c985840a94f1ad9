// Macro shredding for the mixed-size feasibility projection (paper Section 5
// and Figure 2). Each movable macro is tiled by "shreds" — squares of side
// 2 × standard-row height, shrunk by √γ so that after γ-density spreading
// the shred cloud's bounding box matches the macro plus its halo. Shreds are
// NOT connected by fake nets and never appear in the linear systems; they
// exist only inside P_C. The macro's projected position is the interpolation
// of its shreds: original center plus the mean shred displacement.
#pragma once

#include <vector>

#include "projection/mote.h"

namespace complx {

class MacroShredder {
 public:
  /// `gamma` is the target utilization the shreds are shrunk for (√γ size
  /// compensation).
  MacroShredder(const Netlist& nl, double gamma);

  /// Tiles macro `id` (centered at (cx, cy)) into shreds. The shreds' total
  /// area equals γ × macro area by construction of the √γ scaling.
  std::vector<Mote> shred(CellId id, double cx, double cy) const;

  /// Mean displacement of the shreds motes[first, last) relative to their
  /// recorded origin positions origins[first, last) (parallel arrays),
  /// summed in index order; the projection applies it to the macro center.
  /// Zero for an empty range.
  static Point mean_displacement(const std::vector<Mote>& motes,
                                 const std::vector<Point>& origins,
                                 size_t first, size_t last);

 private:
  const Netlist& nl_;
  double gamma_;
};

}  // namespace complx
