// Nonlinear Conjugate Gradient (Polak–Ribière+ with Armijo backtracking),
// used to minimize the smooth interconnect models of Section S1 inside the
// ComPLx Lagrangian: L°(v) = Φ_smooth(v) + Σ w_i (v_i − anchor_i)².
//
// The quadratic pseudonet penalty is the same linearized L1 anchor term the
// QP path uses, so the Lagrangian framework is identical across models —
// the paper's central "any interconnect model plugs in" claim.
#pragma once

#include <functional>

#include "density/penalty.h"
#include "linalg/vec.h"
#include "netlist/netlist.h"
#include "qp/solver.h"
#include "wl/smooth.h"

namespace complx {

struct NlcgOptions {
  int max_iterations = 100;
  double grad_tolerance = 1e-3;  ///< stop when ||g||∞ < tol · scale
  double initial_step = 1.0;
};

struct NlcgResult {
  int iterations = 0;
  double objective = 0.0;
  bool converged = false;
};

/// Generic minimizer: f maps a flat variable vector to (value, gradient).
NlcgResult minimize_nlcg(
    const std::function<double(const Vec&, Vec&)>& value_and_grad, Vec& v,
    const NlcgOptions& opts);

/// Placement adapter: minimizes Φ_smooth + anchor pseudonets over the
/// movable-cell coordinates of `p` (both axes jointly), then clamps into
/// the core. Returns the final objective.
NlcgResult minimize_smooth_placement(const Netlist& nl, const SmoothWl& wl,
                                     Placement& p, const AnchorSet* anchors,
                                     const NlcgOptions& opts);

/// Smooth wirelength augmented with λ_d × the cosine-bell density penalty —
/// the nonconvex baseline's objective F = Φ_smooth + λ_d·D. λ_d is held by
/// reference so the caller's outer ramp is seen without rebuilding the
/// adapter.
class DensityAugmentedWl : public SmoothWl {
 public:
  DensityAugmentedWl(const SmoothWl& wl, const DensityPenalty& density,
                     const double& lambda_d)
      : wl_(wl), density_(density), lambda_(lambda_d) {}

  double value_and_grad(const Placement& p, Vec& gx,
                        Vec& gy) const override {
    const double f = wl_.value_and_grad(p, gx, gy);
    const double d = density_.value_and_grad(p, dgx_, dgy_);
    for (size_t i = 0; i < gx.size(); ++i) {
      gx[i] += lambda_ * dgx_[i];
      gy[i] += lambda_ * dgy_[i];
    }
    return f + lambda_ * d;
  }

 private:
  const SmoothWl& wl_;
  const DensityPenalty& density_;
  const double& lambda_;
  mutable Vec dgx_, dgy_;  ///< gradient scratch (reused across evaluations)
};

}  // namespace complx
