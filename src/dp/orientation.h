// Cell-orientation optimization: mirror standard cells about their vertical
// axis when that shortens incident nets. Orientation changes are free in
// row-based layouts (same footprint, legality preserved), so this is pure
// HPWL gain. The paper notes it as a separate knob ("We regenerated
// placements of SimPL without a cell-orientation optimization" — Table 1
// caption); this module supplies it.
#pragma once

#include "netlist/netlist.h"

namespace complx {

struct OrientationResult {
  size_t flipped = 0;
  double initial_hpwl = 0.0;
  double final_hpwl = 0.0;
  int passes = 0;
};

/// Greedy sweeps over movable standard cells: flip when the incident-net
/// HPWL strictly improves; repeat until a pass makes no flips (at most three
/// passes). MUTATES the netlist's pin offsets and orientation flags.
OrientationResult optimize_orientation(Netlist& nl, const Placement& p);

}  // namespace complx
