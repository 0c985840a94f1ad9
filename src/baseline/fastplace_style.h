// Baseline global placer in the style of FastPlace (Viswanathan, Pan, Chu):
// quadratic placement with iterative CELL SHIFTING — per-bin-row utilization
// equalization by piecewise-linear coordinate remapping — plus spreading
// forces realized as anchor pseudonets to the shifted positions.
//
// This is the comparative baseline for Table 1/2: a competitive pre-SimPL
// diffusion-based placer, implemented from its published description. It
// shares the netlist, quadratic solver and legalization substrates with
// ComPLx, so measured differences isolate the spreading algorithm.
#pragma once

#include "netlist/netlist.h"

namespace complx {

/// The placer stops once the density overflow ratio falls below this.
inline constexpr double kFastPlaceStopOverflow = 0.18;

struct FastPlaceResult {
  Placement placement;
  int iterations = 0;
  double final_overflow = 0.0;
  double runtime_s = 0.0;
};

class FastPlaceStylePlacer {
 public:
  explicit FastPlaceStylePlacer(const Netlist& nl) : nl_(nl) {}
  FastPlaceResult place();

 private:
  const Netlist& nl_;
};

}  // namespace complx
