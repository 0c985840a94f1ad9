#include "nlcg/nlcg.h"

#include <algorithm>
#include <cmath>

namespace complx {

NlcgResult minimize_nlcg(
    const std::function<double(const Vec&, Vec&)>& value_and_grad, Vec& v,
    const NlcgOptions& opts) {
  constexpr double kArmijoC = 1e-4;   // Armijo sufficient decrease
  constexpr double kBacktrack = 0.5;  // step shrink per backtrack
  constexpr int kMaxBacktracks = 30;  // shrinks before the search gives up
  NlcgResult result;
  const size_t n = v.size();
  Vec g(n), g_prev(n), d(n), trial(n), g_trial(n);

  double f = value_and_grad(v, g);
  if (!std::isfinite(f)) return result;  // corrupted start: leave v alone
  for (size_t i = 0; i < n; ++i) d[i] = -g[i];
  double g_dot = dot(g, g);
  const double scale = std::max(1.0, norm2(g));
  double step = opts.initial_step;

  for (int it = 0; it < opts.max_iterations; ++it) {
    double ginf = 0.0;
    for (double x : g) ginf = std::max(ginf, std::abs(x));
    if (ginf < opts.grad_tolerance * scale) {
      result.converged = true;
      break;
    }

    // Armijo backtracking along d.
    const double slope = dot(g, d);
    if (slope >= 0.0) {  // not a descent direction: restart with -g
      for (size_t i = 0; i < n; ++i) d[i] = -g[i];
    }
    const double dir_slope = dot(g, d);
    double t = step;
    double f_new = f;
    bool accepted = false;
    for (int bt = 0; bt < kMaxBacktracks; ++bt) {
      for (size_t i = 0; i < n; ++i) trial[i] = v[i] + t * d[i];
      f_new = value_and_grad(trial, g_trial);
      // A non-finite trial value (overflowed exponentials, poisoned
      // gradient) is treated as a failed step, never accepted.
      if (std::isfinite(f_new) &&
          f_new <= f + kArmijoC * t * dir_slope) {
        accepted = true;
        break;
      }
      t *= kBacktrack;
    }
    if (!accepted) break;  // line search failed: local flatness

    v.swap(trial);
    g_prev.swap(g);
    g.swap(g_trial);
    f = f_new;
    // Allow the next line search to grow again.
    step = std::min(opts.initial_step, t / kBacktrack);

    // Polak–Ribière+ with automatic restart.
    double num = 0.0;
    for (size_t i = 0; i < n; ++i) num += g[i] * (g[i] - g_prev[i]);
    const double beta = std::max(0.0, num / std::max(g_dot, 1e-300));
    g_dot = dot(g, g);
    for (size_t i = 0; i < n; ++i) d[i] = -g[i] + beta * d[i];

    result.iterations = it + 1;
  }
  result.objective = f;
  return result;
}

NlcgResult minimize_smooth_placement(const Netlist& nl, const SmoothWl& wl,
                                     Placement& p, const AnchorSet* anchors,
                                     const NlcgOptions& opts) {
  const std::vector<CellId>& movable = nl.movable_cells();
  const size_t m = movable.size();

  // Flatten movable coordinates: [x..., y...].
  Vec v(2 * m);
  for (size_t k = 0; k < m; ++k) {
    v[k] = p.x[movable[k]];
    v[m + k] = p.y[movable[k]];
  }

  Placement work = p;
  Vec gx, gy;
  auto objective = [&](const Vec& vars, Vec& grad) {
    for (size_t k = 0; k < m; ++k) {
      work.x[movable[k]] = vars[k];
      work.y[movable[k]] = vars[m + k];
    }
    double f = wl.value_and_grad(work, gx, gy);
    grad.assign(2 * m, 0.0);
    for (size_t k = 0; k < m; ++k) {
      grad[k] = gx[movable[k]];
      grad[m + k] = gy[movable[k]];
    }
    if (anchors) {
      for (size_t k = 0; k < m; ++k) {
        const CellId id = movable[k];
        const double dxv = vars[k] - anchors->target_x[id];
        const double dyv = vars[m + k] - anchors->target_y[id];
        f += anchors->weight_x[id] * dxv * dxv +
             anchors->weight_y[id] * dyv * dyv;
        grad[k] += 2.0 * anchors->weight_x[id] * dxv;
        grad[m + k] += 2.0 * anchors->weight_y[id] * dyv;
      }
    }
    return f;
  };

  NlcgResult res = minimize_nlcg(objective, v, opts);

  const Rect& core = nl.core();
  for (size_t k = 0; k < m; ++k) {
    const Cell& c = nl.cell(movable[k]);
    p.x[movable[k]] =
        std::clamp(v[k], core.xl + c.width / 2.0,
                   std::max(core.xl + c.width / 2.0, core.xh - c.width / 2.0));
    p.y[movable[k]] = std::clamp(
        v[m + k], core.yl + c.height / 2.0,
        std::max(core.yl + c.height / 2.0, core.yh - c.height / 2.0));
  }
  return res;
}

}  // namespace complx
