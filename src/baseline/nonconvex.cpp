#include "baseline/nonconvex.h"

#include <algorithm>
#include <cmath>

#include "density/penalty.h"
#include "nlcg/nlcg.h"
#include "util/rng.h"
#include "util/timer.h"
#include "wl/smooth.h"

namespace complx {

NonconvexPlacer::NonconvexPlacer(const Netlist& nl,
                                 const NonconvexConfig& cfg)
    : nl_(nl), cfg_(cfg) {}

NonconvexResult NonconvexPlacer::place() {
  Timer timer;
  NonconvexResult result;

  Placement p = nl_.snapshot();
  {
    // Same centered initialization convention as the other placers.
    Rng rng(0xA91Cull);
    const Point c = nl_.core().center();
    const double r = 2.0 * nl_.row_height();
    for (CellId id : nl_.movable_cells()) {
      p.x[id] = c.x + rng.uniform(-r, r);
      p.y[id] = c.y + rng.uniform(-r, r);
    }
  }

  constexpr double kLseGammaRows = 3.0;  // wirelength smoothing, row heights
  const LseWl wirelength(nl_, kLseGammaRows * nl_.row_height());
  const DensityPenalty density(nl_, DensityPenaltyOptions{});

  // Pure wirelength warm-up.
  {
    NlcgOptions opts;
    opts.max_iterations = cfg_.nlcg_iterations;
    minimize_smooth_placement(nl_, wirelength, p, nullptr, opts);
  }

  // λ_d normalization at the warm-up point: the density gradient starts at
  // this fraction of the wirelength gradient (APlace-style).
  constexpr double kInitialGradientRatio = 0.25;
  Vec gx, gy, dgx, dgy;
  wirelength.value_and_grad(p, gx, gy);
  density.value_and_grad(p, dgx, dgy);
  double wl_norm = 0.0, d_norm = 0.0;
  for (CellId id : nl_.movable_cells()) {
    wl_norm += std::abs(gx[id]) + std::abs(gy[id]);
    d_norm += std::abs(dgx[id]) + std::abs(dgy[id]);
  }
  double lambda_d = d_norm > 1e-12
                        ? kInitialGradientRatio * wl_norm / d_norm
                        : 1.0;

  const DensityAugmentedWl combined(wirelength, density, lambda_d);

  int round = 1;
  for (; round <= cfg_.max_rounds; ++round) {
    NlcgOptions opts;
    opts.max_iterations = cfg_.nlcg_iterations;
    minimize_smooth_placement(nl_, combined, p, nullptr, opts);
    result.final_overflow = density.overflow_ratio(p);
    if (result.final_overflow < kNonconvexStopOverflow) break;
    lambda_d *= 2.0;  // the classic penalty ramp
  }

  result.placement = std::move(p);
  result.rounds = std::min(round, cfg_.max_rounds);
  result.density_clamped_cells = density.stats().clamped_cells;
  result.runtime_s = timer.seconds();
  return result;
}

}  // namespace complx
