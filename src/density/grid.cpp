#include "density/grid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/parallel.h"

namespace complx {

DensityGrid::DensityGrid(const Netlist& nl, size_t bins_x, size_t bins_y,
                         const DensityOptions& opts)
    : nl_(nl), bx_(bins_x), by_(bins_y), core_(nl.core()), opts_(opts) {
  if (bins_x == 0 || bins_y == 0)
    throw std::invalid_argument("density grid needs at least one bin");
  bw_ = core_.width() / static_cast<double>(bx_);
  bh_ = core_.height() / static_cast<double>(by_);

  // Capacity = bin area minus fixed blockage.
  cap_.assign(bx_ * by_, bw_ * bh_);
  std::vector<double> blocked(bx_ * by_, 0.0);
  for (const Cell& c : nl.cells()) {
    if (c.movable()) continue;
    deposit(c.bounds(), blocked);
  }
  for (size_t k = 0; k < cap_.size(); ++k)
    cap_[k] = std::max(0.0, cap_[k] - blocked[k]);
  use_.assign(bx_ * by_, 0.0);
  rebuild_sat(cap_, cap_sat_);
  rebuild_sat(use_, use_sat_);
}

void DensityGrid::deposit(const Rect& r, std::vector<double>& field) {
  const Rect clipped = {std::max(r.xl, core_.xl), std::max(r.yl, core_.yl),
                        std::min(r.xh, core_.xh), std::min(r.yh, core_.yh)};
  if (clipped.empty()) return;
  const size_t i0 = bin_x_of(clipped.xl);
  const size_t i1 = bin_x_of(clipped.xh - 1e-12);
  const size_t j0 = bin_y_of(clipped.yl);
  const size_t j1 = bin_y_of(clipped.yh - 1e-12);
  for (size_t j = j0; j <= j1; ++j)
    for (size_t i = i0; i <= i1; ++i)
      field[idx(i, j)] += bin_rect(i, j).overlap_area(clipped);
}

void DensityGrid::build(const Placement& p) {
  // Raw-array deposit loop: per movable cell, two coordinate loads and the
  // 40-byte hot Cell record — no name or adjacency data enters the cache.
  const NetlistView v = nl_.view();
  parallel_deposit(
      v.num_movable,
      [&](size_t k, std::vector<double>& f) {
        const CellId id = v.movable[k];
        const Cell& c = v.cells[id];
        const Rect r = {p.x[id] - c.width / 2.0, p.y[id] - c.height / 2.0,
                        p.x[id] + c.width / 2.0, p.y[id] + c.height / 2.0};
        deposit(r, f);
      },
      use_);
  rebuild_sat(use_, use_sat_);
}

void DensityGrid::build_from_rects(const std::vector<Rect>& movable_rects) {
  parallel_deposit(
      movable_rects.size(),
      [&](size_t k, std::vector<double>& f) { deposit(movable_rects[k], f); },
      use_);
  rebuild_sat(use_, use_sat_);
}

void DensityGrid::rebuild_sat(const std::vector<double>& field,
                              std::vector<double>& sat) const {
  // Serial bin-order recurrence: sat(i, j) = Σ field over bins ii<i, jj<j.
  // The summation schedule depends only on the grid shape, so the table is
  // the same bytes at any thread count.
  sat.assign((bx_ + 1) * (by_ + 1), 0.0);
  for (size_t j = 0; j < by_; ++j) {
    for (size_t i = 0; i < bx_; ++i) {
      sat[sat_idx(i + 1, j + 1)] = field[idx(i, j)] + sat[sat_idx(i, j + 1)] +
                                   sat[sat_idx(i + 1, j)] - sat[sat_idx(i, j)];
    }
  }
}

double DensityGrid::sat_span(const std::vector<double>& sat, size_t i0,
                             size_t j0, size_t i1, size_t j1) const {
  return sat[sat_idx(i1 + 1, j1 + 1)] - sat[sat_idx(i0, j1 + 1)] -
         sat[sat_idx(i1 + 1, j0)] + sat[sat_idx(i0, j0)];
}

double DensityGrid::capacity_sum(size_t i0, size_t j0, size_t i1,
                                 size_t j1) const {
  if (opts_.use_prefix_sums) return sat_span(cap_sat_, i0, j0, i1, j1);
  double s = 0.0;
  for (size_t j = j0; j <= j1; ++j)
    for (size_t i = i0; i <= i1; ++i) s += cap_[idx(i, j)];
  return s;
}

double DensityGrid::usage_sum(size_t i0, size_t j0, size_t i1,
                              size_t j1) const {
  if (opts_.use_prefix_sums) return sat_span(use_sat_, i0, j0, i1, j1);
  double s = 0.0;
  for (size_t j = j0; j <= j1; ++j)
    for (size_t i = i0; i <= i1; ++i) s += use_[idx(i, j)];
  return s;
}

Rect DensityGrid::bin_rect(size_t i, size_t j) const {
  return {core_.xl + static_cast<double>(i) * bw_,
          core_.yl + static_cast<double>(j) * bh_,
          core_.xl + static_cast<double>(i + 1) * bw_,
          core_.yl + static_cast<double>(j + 1) * bh_};
}

double DensityGrid::overflow(size_t i, size_t j, double gamma) const {
  return std::max(0.0, use_[idx(i, j)] - gamma * cap_[idx(i, j)]);
}

double DensityGrid::total_overflow(double gamma) const {
  // Per-bin max(0, ·) is nonlinear, so this stays a bin loop (prefix sums
  // cannot express it). Bin-order reduction with deterministic fixed
  // chunking (the serial loop visited bins in exactly this linear order).
  return parallel_sum(bx_ * by_, [&](size_t begin, size_t end) {
    double s = 0.0;
    for (size_t k = begin; k < end; ++k)
      s += std::max(0.0, use_[k] - gamma * cap_[k]);
    return s;
  });
}

bool DensityGrid::feasible(double gamma, double tol) const {
  for (size_t j = 0; j < by_; ++j)
    for (size_t i = 0; i < bx_; ++i)
      if (overflow(i, j, gamma) > tol * bw_ * bh_) return false;
  return true;
}

double DensityGrid::integrate_loop(const std::vector<double>& field,
                                   const Rect& r) const {
  const Rect clipped = {std::max(r.xl, core_.xl), std::max(r.yl, core_.yl),
                        std::min(r.xh, core_.xh), std::min(r.yh, core_.yh)};
  if (clipped.empty()) return 0.0;
  const size_t i0 = bin_x_of(clipped.xl);
  const size_t i1 = bin_x_of(clipped.xh - 1e-12);
  const size_t j0 = bin_y_of(clipped.yl);
  const size_t j1 = bin_y_of(clipped.yh - 1e-12);
  double s = 0.0;
  for (size_t j = j0; j <= j1; ++j) {
    for (size_t i = i0; i <= i1; ++i) {
      const Rect b = bin_rect(i, j);
      const double frac = b.overlap_area(clipped) / b.area();
      s += frac * field[idx(i, j)];
    }
  }
  return s;
}

double DensityGrid::integrate_sat(const std::vector<double>& field,
                                  const std::vector<double>& sat,
                                  const Rect& r) const {
  const Rect clipped = {std::max(r.xl, core_.xl), std::max(r.yl, core_.yl),
                        std::min(r.xh, core_.xh), std::min(r.yh, core_.yh)};
  if (clipped.empty()) return 0.0;
  // S(x, y) = ∫ of the uniform-within-bin density over [core.xl, x] ×
  // [core.yl, y]: whole-bin block via the table plus bilinear fractional
  // edge terms — exactly the per-bin frac · field sum of integrate_loop,
  // re-associated. Four O(1) corner evaluations give the rectangle.
  const auto S = [&](double x, double y) {
    const size_t i = bin_x_of(x);
    const size_t j = bin_y_of(y);
    const double fx = std::clamp(
        (x - (core_.xl + static_cast<double>(i) * bw_)) / bw_, 0.0, 1.0);
    const double fy = std::clamp(
        (y - (core_.yl + static_cast<double>(j) * bh_)) / bh_, 0.0, 1.0);
    const double block = sat[sat_idx(i, j)];
    const double col = sat[sat_idx(i + 1, j)] - sat[sat_idx(i, j)];
    const double row = sat[sat_idx(i, j + 1)] - sat[sat_idx(i, j)];
    return block + fx * col + fy * row + fx * fy * field[idx(i, j)];
  };
  return S(clipped.xh, clipped.yh) - S(clipped.xl, clipped.yh) -
         S(clipped.xh, clipped.yl) + S(clipped.xl, clipped.yl);
}

double DensityGrid::free_area_in(const Rect& r) const {
  return opts_.use_prefix_sums ? integrate_sat(cap_, cap_sat_, r)
                               : integrate_loop(cap_, r);
}

double DensityGrid::usage_in(const Rect& r) const {
  return opts_.use_prefix_sums ? integrate_sat(use_, use_sat_, r)
                               : integrate_loop(use_, r);
}

size_t DensityGrid::bin_x_of(double x) const {
  // Guard before any float→int conversion: casting a non-finite (or huge)
  // double to an integer is undefined behavior. NaN fails every ordered
  // comparison and lands in bin 0; ±inf clamp to the edge bins. Finite
  // in-range input truncates exactly like the historical floor+clamp.
  const double t = (x - core_.xl) / bw_;
  if (!(t > 0.0)) return 0;
  const double hi = static_cast<double>(bx_) - 1.0;
  if (t > hi) return bx_ - 1;
  return static_cast<size_t>(t);
}

size_t DensityGrid::bin_y_of(double y) const {
  const double t = (y - core_.yl) / bh_;
  if (!(t > 0.0)) return 0;
  const double hi = static_cast<double>(by_) - 1.0;
  if (t > hi) return by_ - 1;
  return static_cast<size_t>(t);
}

}  // namespace complx
