#include "projection/spreader.h"

#include <algorithm>
#include <cmath>

namespace complx {

namespace {

// Recursion depth bound. Each level splits the mote list at its area
// median, but a skewed area distribution can peel off one mote per level;
// past this depth the terminal sweep spreads what is left.
constexpr int kMaxDepth = 48;

double coord(const Mote* m, bool horizontal) {
  return horizontal ? m->x : m->y;
}
void set_coord(Mote* m, bool horizontal, double v) {
  (horizontal ? m->x : m->y) = v;
}
double lo_edge(const Rect& r, bool horizontal) {
  return horizontal ? r.xl : r.yl;
}
double hi_edge(const Rect& r, bool horizontal) {
  return horizontal ? r.xh : r.yh;
}

/// Sub-rectangle of `r` along the chosen axis.
Rect slice(const Rect& r, bool horizontal, double lo, double hi) {
  return horizontal ? Rect{lo, r.yl, hi, r.yh} : Rect{r.xl, lo, r.xh, hi};
}

/// Strict weak order on motes along an axis with deterministic tie-breaks.
/// std::sort is unstable, so sorting on the raw coordinate alone would let
/// the relative order of coincident motes (common early on, when cells pile
/// up at the core center) depend on the implementation's pivot choices.
/// Breaking ties by owner id and then the transverse coordinate pins the
/// permutation to the input values only.
bool mote_before(const Mote* a, const Mote* b, bool horizontal) {
  const double ca = coord(a, horizontal);
  const double cb = coord(b, horizontal);
  if (ca < cb) return true;
  if (cb < ca) return false;
  if (a->owner != b->owner) return a->owner < b->owner;
  return coord(a, !horizontal) < coord(b, !horizontal);
}

/// Cumulative γ-capacity along one axis of a region. Free area is uniform
/// within a bin, so the cumulative profile is piecewise linear with knots at
/// the bin boundaries; building it costs one O(1) free_area_in query per bin
/// column crossed, and inverting it is linear interpolation. This replaces
/// the historical 40-step capacity_cut bisection (which evaluated a full
/// free_area_in per step) with one exact solve per query — and an increasing
/// sequence of targets can share a monotone hint so a whole terminal-spread
/// sweep costs O(columns) total.
class CapacityProfile {
 public:
  CapacityProfile(const DensityGrid& g, const Rect& region, bool horizontal,
                  double gamma) {
    const double lo = lo_edge(region, horizontal);
    const double hi = hi_edge(region, horizontal);
    knots_.push_back(lo);
    cum_.push_back(0.0);
    if (!(hi > lo)) return;
    const size_t b0 = horizontal ? g.bin_x_of(lo) : g.bin_y_of(lo);
    const size_t b1 =
        horizontal ? g.bin_x_of(hi - 1e-12) : g.bin_y_of(hi - 1e-12);
    for (size_t b = b0; b <= b1; ++b) {
      const Rect cell = horizontal ? g.bin_rect(b, 0) : g.bin_rect(0, b);
      const double edge = std::min(hi, horizontal ? cell.xh : cell.yh);
      if (edge <= knots_.back()) continue;
      cum_.push_back(cum_.back() +
                     gamma * g.free_area_in(
                                 slice(region, horizontal, knots_.back(), edge)));
      knots_.push_back(edge);
    }
    if (knots_.back() < hi) {  // region reaches past the core: zero capacity
      knots_.push_back(hi);
      cum_.push_back(cum_.back());
    }
  }

  double total() const { return cum_.back(); }

  /// Smallest t with cum(t) >= target — the same infimum the bisection
  /// converged to, including on zero-capacity plateaus. `hint` (optional)
  /// must come from a previous call with a target no larger than this one;
  /// it persists the segment pointer across a nondecreasing target sweep.
  double invert(double target, size_t* hint = nullptr) const {
    if (knots_.size() < 2) return knots_.front();
    if (!(target > 0.0)) return knots_.front();
    size_t k = hint != nullptr ? *hint : 0;
    while (k + 2 < cum_.size() && cum_[k + 1] < target) ++k;
    if (hint != nullptr) *hint = k;
    const double seg = cum_[k + 1] - cum_[k];
    if (!(seg > 0.0)) return knots_[k];
    const double t =
        knots_[k] + (target - cum_[k]) / seg * (knots_[k + 1] - knots_[k]);
    return std::clamp(t, knots_[k], knots_[k + 1]);
  }

 private:
  std::vector<double> knots_;  ///< bin-boundary coordinates clipped to region
  std::vector<double> cum_;    ///< cumulative γ-capacity up to each knot
};

}  // namespace

void Spreader::spread(const Rect& region, std::vector<Mote*>& motes) const {
  if (motes.empty() || region.empty()) return;
  recurse(region, motes, 0);
}

void Spreader::recurse(const Rect& region, std::vector<Mote*>& motes,
                       int depth) const {
  if (motes.empty()) return;
  if (static_cast<int>(motes.size()) <= opts_.terminal_motes ||
      depth >= kMaxDepth) {
    terminal_spread(region, motes);
    return;
  }

  const bool horizontal = region.width() >= region.height();
  std::sort(motes.begin(), motes.end(), [&](const Mote* a, const Mote* b) {
    return mote_before(a, b, horizontal);
  });

  // Area-median split of the cell list.
  double total_area = 0.0;
  for (const Mote* m : motes) total_area += m->area();
  size_t k = 0;
  double acc = 0.0;
  while (k < motes.size() && acc + motes[k]->area() <= total_area / 2.0)
    acc += motes[k++]->area();
  k = std::clamp<size_t>(k, 1, motes.size() - 1);
  const double area1 = acc;

  // Capacity-proportional cut line.
  const CapacityProfile profile(grid_, region, horizontal, opts_.gamma);
  const double region_cap = profile.total();
  double cut;
  if (region_cap > 1e-12 && total_area > 0.0) {
    cut = profile.invert(region_cap * (area1 / total_area));
  } else {
    cut = (lo_edge(region, horizontal) + hi_edge(region, horizontal)) / 2.0;
  }
  // Keep both halves non-degenerate.
  const double lo = lo_edge(region, horizontal);
  const double hi = hi_edge(region, horizontal);
  const double min_span = (hi - lo) * 1e-3;
  cut = std::clamp(cut, lo + min_span, hi - min_span);

  // Piecewise-linear rescale around the old split coordinate. Relative
  // order is preserved because both maps are increasing.
  const double m_lo = coord(motes[k - 1], horizontal);
  const double m_hi = coord(motes[k], horizontal);
  const double knot = std::clamp((m_lo + m_hi) / 2.0, lo, hi);
  const double left_span = std::max(knot - lo, 1e-12);
  const double right_span = std::max(hi - knot, 1e-12);
  for (size_t i = 0; i < k; ++i) {
    const double t = (coord(motes[i], horizontal) - lo) / left_span;
    set_coord(motes[i], horizontal, lo + std::clamp(t, 0.0, 1.0) * (cut - lo));
  }
  for (size_t i = k; i < motes.size(); ++i) {
    const double t = (coord(motes[i], horizontal) - knot) / right_span;
    set_coord(motes[i], horizontal,
              cut + std::clamp(t, 0.0, 1.0) * (hi - cut));
  }

  std::vector<Mote*> left(motes.begin(), motes.begin() + static_cast<long>(k));
  std::vector<Mote*> right(motes.begin() + static_cast<long>(k), motes.end());
  recurse(slice(region, horizontal, lo, cut), left, depth + 1);
  recurse(slice(region, horizontal, cut, hi), right, depth + 1);
}

void Spreader::terminal_spread(const Rect& region,
                               std::vector<Mote*>& motes) const {
  // 1-D spreading along the dominant axis: each mote is placed where the
  // cumulative capacity profile reaches its cumulative-area midpoint.
  // This evens density while preserving sorted order (Section S2's convex
  // subproblem in the δ_i variables). The transverse coordinate is clamped.
  const bool horizontal = region.width() >= region.height();
  std::sort(motes.begin(), motes.end(), [&](const Mote* a, const Mote* b) {
    return mote_before(a, b, horizontal);
  });

  double total_area = 0.0;
  for (const Mote* m : motes) total_area += m->area();
  const CapacityProfile profile(grid_, region, horizontal, opts_.gamma);
  const double region_cap = profile.total();

  const double lo = lo_edge(region, horizontal);
  const double hi = hi_edge(region, horizontal);

  if (total_area <= 0.0 || region_cap <= 1e-12) {
    // Nothing meaningful to even out; just clamp into the region.
    for (Mote* m : motes) {
      m->x = std::clamp(m->x, region.xl, region.xh);
      m->y = std::clamp(m->y, region.yl, region.yh);
    }
    return;
  }

  // Single monotone sweep: cumulative-area midpoints increase in sorted
  // order, so one persistent hint walks the profile left to right.
  size_t hint = 0;
  double acc = 0.0;
  for (Mote* m : motes) {
    const double midpoint = acc + m->area() / 2.0;
    acc += m->area();
    const double target_cap = region_cap * (midpoint / total_area);
    const double pos = profile.invert(target_cap, &hint);
    set_coord(m, horizontal, std::clamp(pos, lo, hi));
    // Clamp transverse coordinate into the region.
    if (horizontal)
      m->y = std::clamp(m->y, region.yl, region.yh);
    else
      m->x = std::clamp(m->x, region.xl, region.xh);
  }
}

}  // namespace complx
