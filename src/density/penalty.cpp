#include "density/penalty.h"

#include <algorithm>
#include <cmath>

#include "util/fpcmp.h"

namespace complx {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kSmoothing = 2.0;  // bell radius in bins

/// Cosine bell: weight(u) = (1 + cos(π·u))/2 for |u| <= 1, else 0.
/// Smooth, compactly supported, integrates nicely over bins.
double bell(double u) {
  const double a = std::abs(u);
  return a >= 1.0 ? 0.0 : 0.5 * (1.0 + std::cos(kPi * a));
}
double bell_grad(double u) {  // d bell / du
  const double a = std::abs(u);
  if (a >= 1.0) return 0.0;
  const double g = -0.5 * kPi * std::sin(kPi * a);
  return u >= 0.0 ? g : -g;
}

/// Clamps a center coordinate into [lo, hi] with the NaN-safe ordering of
/// grid.cpp's bin lookup: NaN fails every ordered comparison and lands on
/// `lo` instead of flowing into a float→int cast downstream. Sets `clamped`
/// when the input was outside (or not a number).
double clamp_center(double c, double lo, double hi, bool& clamped) {
  if (!(c > lo)) {
    // NaN is not exactly_equal to lo, so it is counted as a clamp.
    clamped = clamped || !fp::exactly_equal(c, lo);
    return lo;
  }
  if (c > hi) {
    clamped = true;
    return hi;
  }
  return c;
}
}  // namespace

DensityPenalty::DensityPenalty(const Netlist& nl,
                               const DensityPenaltyOptions& opts)
    : nl_(nl), opts_(opts) {
  bins_ = opts.bins;
  if (bins_ == 0) {
    bins_ = std::clamp<size_t>(
        static_cast<size_t>(
            std::sqrt(static_cast<double>(nl.num_movable()) / 4.0)),
        8, 256);
  }
  bw_ = nl.core().width() / static_cast<double>(bins_);
  bh_ = nl.core().height() / static_cast<double>(bins_);
  radius_ = kSmoothing * bw_;
  radius_y_ = kSmoothing * bh_;

  // Capacity from the exact grid (fixed blockage subtracted), γ-scaled. The
  // grid is kept — overflow_ratio re-deposits movable area into it per call
  // instead of rebuilding the fixed-blockage scan from scratch.
  const DensityGrid& grid = ensure_grid();
  capacity_.resize(bins_ * bins_);
  for (size_t j = 0; j < bins_; ++j)
    for (size_t i = 0; i < bins_; ++i)
      capacity_[j * bins_ + i] =
          nl.target_density() * grid.capacity(i, j);
}

DensityGrid& DensityPenalty::ensure_grid() const {
  if (!grid_)
    grid_ = std::make_unique<DensityGrid>(nl_, bins_, bins_, opts_.grid);
  return *grid_;
}

double DensityPenalty::value_and_grad(const Placement& p, Vec& gx,
                                      Vec& gy) const {
  const size_t n = nl_.num_cells();
  gx.assign(n, 0.0);
  gy.assign(n, 0.0);

  const Rect& core = nl_.core();
  std::vector<double> density(bins_ * bins_, 0.0);

  // Each cell's area spread by the product bell around its center; the
  // per-cell normalization keeps total deposited area = cell area.
  auto bins_touching = [&](double c, double radius, double bin_w,
                           double lo, size_t count, long& b0, long& b1) {
    b0 = static_cast<long>(std::floor((c - radius - lo) / bin_w));
    b1 = static_cast<long>(std::floor((c + radius - lo) / bin_w));
    b0 = std::max(b0, 0L);
    b1 = std::min(b1, static_cast<long>(count) - 1);
  };
  // Off-core (or non-finite) centers clamp onto the core so bins_touching
  // always finds a non-empty window: the historical code let the window go
  // empty and the wsum guard below then dropped the cell's entire area from
  // the field with no trace. The clamped coordinate is used consistently in
  // both passes so the gradient matches the deposited field.
  auto center_of = [&](CellId id, bool count_clamp) {
    bool clamped = false;
    const Point c = {clamp_center(p.x[id], core.xl, core.xh, clamped),
                     clamp_center(p.y[id], core.yl, core.yh, clamped)};
    if (clamped && count_clamp) ++stats_.clamped_cells;
    return c;
  };

  // Pass 1: density field.
  for (CellId id : nl_.movable_cells()) {
    const Cell& cell = nl_.cell(id);
    const Point c = center_of(id, /*count_clamp=*/true);
    long i0, i1, j0, j1;
    bins_touching(c.x, radius_, bw_, core.xl, bins_, i0, i1);
    bins_touching(c.y, radius_y_, bh_, core.yl, bins_, j0, j1);
    double wsum = 0.0;
    for (long j = j0; j <= j1; ++j)
      for (long i = i0; i <= i1; ++i) {
        const double cxb = core.xl + (static_cast<double>(i) + 0.5) * bw_;
        const double cyb = core.yl + (static_cast<double>(j) + 0.5) * bh_;
        wsum += bell((c.x - cxb) / radius_) *
                bell((c.y - cyb) / radius_y_);
      }
    if (wsum <= 1e-12) continue;  // unreachable for smoothing >= 1 bin
    const double scale = cell.area() / wsum;
    for (long j = j0; j <= j1; ++j)
      for (long i = i0; i <= i1; ++i) {
        const double cxb = core.xl + (static_cast<double>(i) + 0.5) * bw_;
        const double cyb = core.yl + (static_cast<double>(j) + 0.5) * bh_;
        density[static_cast<size_t>(j) * bins_ + static_cast<size_t>(i)] +=
            scale * bell((c.x - cxb) / radius_) *
            bell((c.y - cyb) / radius_y_);
      }
  }

  // Penalty and its field derivative dF/dD_b = 2·max(0, D_b − cap_b).
  double value = 0.0;
  std::vector<double> dfdd(bins_ * bins_, 0.0);
  for (size_t k = 0; k < density.size(); ++k) {
    const double over = density[k] - capacity_[k];
    if (over > 0.0) {
      value += over * over;
      dfdd[k] = 2.0 * over;
    }
  }

  // Pass 2: chain rule to cell centers (per-cell normalization treated as
  // locally constant — the standard approximation in analytical placers).
  for (CellId id : nl_.movable_cells()) {
    const Cell& cell = nl_.cell(id);
    const Point c = center_of(id, /*count_clamp=*/false);
    long i0, i1, j0, j1;
    bins_touching(c.x, radius_, bw_, core.xl, bins_, i0, i1);
    bins_touching(c.y, radius_y_, bh_, core.yl, bins_, j0, j1);
    double wsum = 0.0;
    for (long j = j0; j <= j1; ++j)
      for (long i = i0; i <= i1; ++i) {
        const double cxb = core.xl + (static_cast<double>(i) + 0.5) * bw_;
        const double cyb = core.yl + (static_cast<double>(j) + 0.5) * bh_;
        wsum += bell((c.x - cxb) / radius_) *
                bell((c.y - cyb) / radius_y_);
      }
    if (wsum <= 1e-12) continue;
    const double scale = cell.area() / wsum;
    for (long j = j0; j <= j1; ++j)
      for (long i = i0; i <= i1; ++i) {
        const size_t k =
            static_cast<size_t>(j) * bins_ + static_cast<size_t>(i);
        if (fp::exactly_zero(dfdd[k])) continue;  // sentinel: bin not over cap
        const double cxb = core.xl + (static_cast<double>(i) + 0.5) * bw_;
        const double cyb = core.yl + (static_cast<double>(j) + 0.5) * bh_;
        const double bx = bell((c.x - cxb) / radius_);
        const double by = bell((c.y - cyb) / radius_y_);
        gx[id] += dfdd[k] * scale * by *
                  bell_grad((c.x - cxb) / radius_) / radius_;
        gy[id] += dfdd[k] * scale * bx *
                  bell_grad((c.y - cyb) / radius_y_) / radius_y_;
      }
  }
  return value;
}

double DensityPenalty::overflow_ratio(const Placement& p) const {
  DensityGrid& grid = ensure_grid();
  grid.build(p);
  return grid.total_overflow(nl_.target_density()) /
         std::max(nl_.movable_area(), 1e-12);
}

}  // namespace complx
