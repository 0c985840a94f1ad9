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

#include "density/penalty.h"
#include "netlist/netlist.h"

namespace complx {

struct NonconvexConfig {
  double lse_gamma_rows = 3.0;  ///< wirelength smoothing (row heights)
  DensityPenaltyOptions density;  ///< the cosine-bell density penalty
  int max_rounds = 24;
  int nlcg_iterations = 60;  ///< per round
  double stop_overflow = 0.12;
  /// Initial λ_d chosen so the density gradient is this fraction of the
  /// wirelength gradient (APlace-style normalization).
  double initial_gradient_ratio = 0.25;
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
