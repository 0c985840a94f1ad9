// Nonconvex analytical placer in the APlace / NTUPlace3 style: minimize
//   F(x, y) = LSE-wirelength(x, y) + λ_d · density-penalty(x, y)
// by nonlinear CG, doubling λ_d each outer round until the hard overflow
// target is met.
//
// This is the family the paper's conclusions contrast with ComPLx:
// "A key difference from analytical placement based on nonconvex
// optimization [20, 9, 12] is the emphasis on decomposing the original
// problem into a series of convex optimizations... Avoiding local
// gradients also improves runtime (compared to APlace and NTUPlace3)."
// bench_nonconvex measures exactly that trade on common designs.
#pragma once

#include "netlist/netlist.h"

namespace complx {

/// The λ_d ramp stops once the density overflow ratio falls below this.
inline constexpr double kNonconvexStopOverflow = 0.12;

struct NonconvexConfig {
  int max_rounds = 24;
  int nlcg_iterations = 60;  ///< per round
};

struct NonconvexResult {
  Placement placement;
  int rounds = 0;
  double final_overflow = 0.0;
  double runtime_s = 0.0;
  /// Off-core / non-finite centers the density penalty clamped during the
  /// run (see DensityStats::clamped_cells).
  size_t density_clamped_cells = 0;
};

class NonconvexPlacer {
 public:
  NonconvexPlacer(const Netlist& nl, const NonconvexConfig& cfg);
  NonconvexResult place();

 private:
  const Netlist& nl_;
  NonconvexConfig cfg_;
};

}  // namespace complx
