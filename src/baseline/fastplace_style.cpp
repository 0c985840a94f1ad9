#include "baseline/fastplace_style.h"

#include <algorithm>
#include <cmath>

#include "density/grid.h"
#include "qp/solver.h"
#include "util/rng.h"
#include "util/timer.h"

namespace complx {

namespace {

constexpr int kMinIterations = 80;     // raised to 2.5 × bins on big grids
constexpr double kForceRamp = 0.001;   // anchor weight = ramp · iteration
constexpr double kShiftDamping = 0.8;  // fraction of a computed shift applied
constexpr int kShiftRounds = 4;        // diffusion rounds per iteration

/// One FastPlace cell-shifting pass along an axis: for every bin row
/// (column), compute shifted virtual bin boundaries that equalize
/// utilization, then remap cell coordinates piecewise-linearly.
void cell_shift_axis(const Netlist& nl, const DensityGrid& grid, Placement& p,
                     bool shift_x) {
  const size_t nx = grid.bins_x(), ny = grid.bins_y();
  const size_t lanes = shift_x ? ny : nx;
  const size_t bins = shift_x ? nx : ny;
  const Rect& core = nl.core();
  const double lo = shift_x ? core.xl : core.yl;
  const double bin_w = shift_x ? grid.bin_width() : grid.bin_height();

  // New boundary positions per lane.
  std::vector<std::vector<double>> new_bounds(lanes);
  for (size_t lane = 0; lane < lanes; ++lane) {
    // Usage per bin in this lane (+ small epsilon to avoid degenerate
    // all-empty divisions).
    std::vector<double> util(bins);
    const double bin_area = grid.bin_width() * grid.bin_height();
    for (size_t b = 0; b < bins; ++b) {
      const size_t i = shift_x ? b : lane;
      const size_t j = shift_x ? lane : b;
      util[b] = grid.usage(i, j) + 1e-6 * bin_area;
    }
    // FastPlace boundary update: boundary k moves toward equalizing the
    // adjacent bins' utilization: x'_k = (U_{k+1}(x_k - x_{k-1}') +
    // U_k(x_{k+1} - x_k)) ... we use the published form:
    //   x'_k = [U_{k+1} * x_{k-1} + U_k * x_{k+1}] / (U_k + U_{k+1})
    // damped toward the original position.
    std::vector<double>& nb = new_bounds[lane];
    nb.assign(bins + 1, 0.0);
    for (size_t k = 0; k <= bins; ++k)
      nb[k] = lo + static_cast<double>(k) * bin_w;
    for (size_t k = 1; k < bins; ++k) {
      const double uk = util[k - 1], uk1 = util[k];
      const double orig = lo + static_cast<double>(k) * bin_w;
      const double lo_b = lo + static_cast<double>(k - 1) * bin_w;
      const double hi_b = lo + static_cast<double>(k + 1) * bin_w;
      const double target = (uk1 * lo_b + uk * hi_b) / (uk + uk1);
      nb[k] = orig + kShiftDamping * (target - orig);
    }
    // Keep boundaries monotone.
    for (size_t k = 1; k <= bins; ++k)
      nb[k] = std::max(nb[k], nb[k - 1] + 1e-9);
  }

  // Remap each movable cell.
  for (CellId id : nl.movable_cells()) {
    const double c = shift_x ? p.x[id] : p.y[id];
    const size_t lane = shift_x ? grid.bin_y_of(p.y[id]) : grid.bin_x_of(p.x[id]);
    const size_t b = shift_x ? grid.bin_x_of(c) : grid.bin_y_of(c);
    const double old_lo = lo + static_cast<double>(b) * bin_w;
    const double t = std::clamp((c - old_lo) / bin_w, 0.0, 1.0);
    const std::vector<double>& nb = new_bounds[lane];
    const double mapped = nb[b] + t * (nb[b + 1] - nb[b]);
    (shift_x ? p.x[id] : p.y[id]) = mapped;
  }
}

}  // namespace

FastPlaceResult FastPlaceStylePlacer::place() {
  Timer timer;
  FastPlaceResult result;
  Placement p = nl_.snapshot();

  const size_t bins = std::clamp<size_t>(static_cast<size_t>(std::sqrt(
      static_cast<double>(nl_.num_movable()) / 4.0)), 8, 256);
  // The diffusion front advances a bounded number of bins per iteration, so
  // the iteration budget must scale with the grid diameter. (This is the
  // Θ(n^1.38)-ish scaling the paper attributes to FastPlace, reproduced.)
  const int max_iterations = std::max<int>(
      kMinIterations, static_cast<int>(2.5 * static_cast<double>(bins)));

  // Initialize at core center with jitter (same convention as ComPLx).
  {
    Rng rng(0xFA57ull);
    const Point c = nl_.core().center();
    const double r = 2.0 * nl_.row_height();
    for (CellId id : nl_.movable_cells()) {
      p.x[id] = c.x + rng.uniform(-r, r);
      p.y[id] = c.y + rng.uniform(-r, r);
    }
  }
  const VarMap vars(nl_);
  const QpOptions qp;  // FastPlace's solver settings are ComPLx's defaults
  QpWorkspace qp_ws;

  // Initial wirelength-only iterations.
  for (int i = 0; i < 3; ++i)
    solve_qp_iteration(nl_, vars, p, nullptr, qp, qp_ws);

  const double gamma = nl_.target_density();
  AnchorSet anchors(nl_.num_cells());

  int k = 1;
  for (; k <= max_iterations; ++k) {
    DensityGrid grid(nl_, bins, bins);
    grid.build(p);
    result.final_overflow =
        grid.total_overflow(gamma) / std::max(nl_.movable_area(), 1e-12);
    if (result.final_overflow < kFastPlaceStopOverflow) break;

    // Cell shifting in both directions, several rounds per iteration: one
    // boundary update moves cells at most ~one bin, so deep piles need
    // repeated diffusion before the next quadratic solve.
    for (int round = 0; round < kShiftRounds; ++round) {
      DensityGrid gx(nl_, bins, bins);
      gx.build(p);
      cell_shift_axis(nl_, gx, p, /*shift_x=*/true);
      DensityGrid gy(nl_, bins, bins);
      gy.build(p);
      cell_shift_axis(nl_, gy, p, /*shift_x=*/false);
    }

    // Spreading forces: anchor each cell at its shifted position with a
    // weight that ramps up over iterations.
    const double w = kForceRamp * static_cast<double>(k);
    for (CellId id : nl_.movable_cells()) {
      anchors.target_x[id] = p.x[id];
      anchors.target_y[id] = p.y[id];
      anchors.weight_x[id] = w;
      anchors.weight_y[id] = w;
    }
    solve_qp_iteration(nl_, vars, p, &anchors, qp, qp_ws);
  }

  result.placement = std::move(p);
  result.iterations = k;
  result.runtime_s = timer.seconds();
  return result;
}

}  // namespace complx
