// Bound2Bound net decomposition (Spindler, Schlichtmann, Johannes —
// Kraftwerk2), the linearized-quadratic interconnect model used by SimPL and
// by ComPLx's default Φ.
//
// For each net and each axis, the pins at the net's min and max coordinate
// ("bound" pins) are connected to each other and to every inner pin. With
// the weight  w_e · 2 / ((P−1)·|pos_i − pos_j|)  the quadratic form equals
// the net's HPWL at the linearization point, so repeated relinearization
// makes quadratic optimization track the piecewise-linear HPWL objective.
#pragma once

#include <vector>

#include "netlist/netlist.h"

namespace complx {

/// One linearized spring between two pins of the same net.
struct PinSpring {
  PinId p = 0;
  PinId q = 0;
  double weight = 0.0;
};

enum class Axis { X, Y };

struct B2bOptions {
  /// Lower clamp on pin separation in the weight denominator. The paper
  /// (footnote 6) anchors ε at module dimensions; callers pass something
  /// like 1.5 × row height. Must be > 0 for strict convexity.
  double min_separation = 1.0;
  /// Nets with more pins than this are skipped (ISPD practice: clock/reset
  /// nets with thousands of pins destabilize the model and add little).
  uint32_t max_degree = 3000;
};

/// Builds the Bound2Bound spring list for one axis at linearization point
/// `p` into `out`, in net order. Degenerate nets (degree < 2) produce
/// nothing. `out` is overwritten in place, so a reused buffer makes the
/// build allocation-free once warm; the sequence does not depend on the
/// thread count.
///
/// `nets`, when given, lists the nets to decompose (ascending ids, e.g.
/// VarMap::live_nets); null means every net. Leaving out a net whose pins
/// are all on fixed cells drops only fixed–fixed springs, which
/// SystemBuilder::add_pin_springs skips anyway, so the stamped system is
/// bitwise the all-nets one.
void build_b2b(const Netlist& nl, const Placement& p, Axis axis,
               const B2bOptions& opts, std::vector<PinSpring>& out,
               const std::vector<NetId>* nets = nullptr);

}  // namespace complx
