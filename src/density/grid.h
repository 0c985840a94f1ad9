// Uniform density grid over the core area.
//
// The feasibility projection P_C identifies overfilled bins against a target
// utilization γ (paper, Section 5: "a uniform grid is superimposed over the
// entire layout... the feasibility projection seeks to satisfy the given
// target utilization/density limit within each grid-cell").
//
// Fixed cells pre-consume bin capacity; movable area is deposited by exact
// rectangle overlap each time build() is called.
//
// Area queries (free_area_in / usage_in / the bin-span sums) run in O(1)
// against summed-area tables maintained over both fields — the bin-grid
// analogue of the fast density transforms in the FFT-based placement
// literature. The tables are rebuilt once per build()/build_from_rects()
// in bin order (deterministic at any thread count); the historical per-bin
// loops remain available behind DensityOptions::use_prefix_sums for
// equivalence testing and ablation.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.h"
#include "util/geom.h"
#include "util/parallel.h"

namespace complx {

struct DensityOptions {
  /// O(1) summed-area-table queries (default). Off = the historical per-bin
  /// loops; both paths agree to ~1e-9 relative to the grid's total area
  /// (the tables change floating-point summation order, nothing else).
  bool use_prefix_sums = true;
};

class DensityGrid {
 public:
  /// `bins_x` by `bins_y` grid over nl.core(). Fixed-cell blockage is
  /// computed once here.
  DensityGrid(const Netlist& nl, size_t bins_x, size_t bins_y,
              const DensityOptions& opts = {});

  /// Deposits movable-cell area for placement `p` (cells treated as
  /// rectangles centered at (p.x, p.y)). Clears previous movable usage.
  void build(const Placement& p);

  /// Like build(), but each movable rectangle is given externally (used by
  /// the macro shredder which substitutes shreds for macros).
  void build_from_rects(const std::vector<Rect>& movable_rects);

  size_t bins_x() const { return bx_; }
  size_t bins_y() const { return by_; }
  double bin_width() const { return bw_; }
  double bin_height() const { return bh_; }
  Rect bin_rect(size_t i, size_t j) const;

  /// Free (non-blocked) area of a bin.
  double capacity(size_t i, size_t j) const { return cap_[idx(i, j)]; }
  /// Movable area currently deposited in a bin.
  double usage(size_t i, size_t j) const { return use_[idx(i, j)]; }
  /// usage − γ·capacity when positive, else 0.
  double overflow(size_t i, size_t j, double gamma) const;

  /// Σ over bins of overflow(i, j, γ).
  double total_overflow(double gamma) const;
  /// Whether utilization exceeds γ anywhere (with small tolerance).
  bool feasible(double gamma, double tol = 1e-9) const;

  /// Bin column/row of a point (clamped into range; non-finite coordinates
  /// clamp to bin 0 rather than invoking undefined float→int behavior —
  /// core/health screens them out upstream, this is the last line).
  size_t bin_x_of(double x) const;
  size_t bin_y_of(double y) const;

  /// Free (placeable) area inside an arbitrary rectangle, assuming each
  /// bin's free area is uniformly distributed over the bin. Used by the
  /// feasibility projection's capacity profiles.
  double free_area_in(const Rect& r) const;

  /// Movable area currently deposited inside an arbitrary rectangle (same
  /// uniform-within-bin assumption).
  double usage_in(const Rect& r) const;

  /// Σ capacity over the inclusive bin span [i0, i1] × [j0, j1] — O(1) via
  /// the summed-area table (used by the region finder's grow/merge loops).
  double capacity_sum(size_t i0, size_t j0, size_t i1, size_t j1) const;
  /// Σ usage over the inclusive bin span [i0, i1] × [j0, j1].
  double usage_sum(size_t i0, size_t j0, size_t i1, size_t j1) const;

  const DensityOptions& options() const { return opts_; }
  const Netlist& netlist() const { return nl_; }

 private:
  size_t idx(size_t i, size_t j) const { return j * bx_ + i; }
  size_t sat_idx(size_t i, size_t j) const { return j * (bx_ + 1) + i; }
  void deposit(const Rect& r, std::vector<double>& field);
  /// Deposits items [0, n) into `field` via per-block partial grids merged
  /// in block order — deterministic at any thread count (see
  /// docs/PARALLELISM.md). `dep(k, f)` adds item k's area into grid f.
  ///
  /// Template (not std::function): the deposit lambda inlines into the
  /// per-block loop, so a million-cell build() makes zero indirect calls in
  /// its hot path. The block schedule and merge order are unchanged, so the
  /// grid stays bitwise identical to the type-erased version.
  template <class Dep>
  void parallel_deposit(size_t n, const Dep& dep, std::vector<double>& field) {
    field.assign(bx_ * by_, 0.0);
    const Partition part = partition_range(n, 1024, 32);
    if (part.parts <= 1) {  // small designs: exactly the historical loop
      for (size_t k = 0; k < n; ++k) dep(k, field);
      return;
    }
    // Per-block partial grids. Block boundaries depend only on n, and bins
    // merge their partials in block order, so the grid is bitwise identical
    // at any thread count.
    std::vector<std::vector<double>> partial(part.parts);
    parallel_for(
        n,
        [&](size_t begin, size_t end) {
          std::vector<double>& f = partial[begin / part.chunk];
          f.assign(bx_ * by_, 0.0);
          for (size_t k = begin; k < end; ++k) dep(k, f);
        },
        part.chunk);
    parallel_for(bx_ * by_, [&](size_t b0, size_t b1) {
      for (size_t b = b0; b < b1; ++b) {
        double s = 0.0;
        for (const std::vector<double>& f : partial)
          if (!f.empty()) s += f[b];
        field[b] = s;
      }
    });
  }
  /// Rebuilds `sat` as the summed-area table of `field`: sat(i, j) = Σ of
  /// field over bins ii < i, jj < j. Serial bin-order recurrence — the same
  /// bytes at any thread count.
  void rebuild_sat(const std::vector<double>& field,
                   std::vector<double>& sat) const;
  /// Inclusive bin-span sum out of a summed-area table.
  double sat_span(const std::vector<double>& sat, size_t i0, size_t j0,
                  size_t i1, size_t j1) const;
  /// ∫ field over r with the uniform-within-bin assumption; O(1) via `sat`.
  double integrate_sat(const std::vector<double>& field,
                       const std::vector<double>& sat, const Rect& r) const;
  /// Same integral via the historical per-bin loop (use_prefix_sums off).
  double integrate_loop(const std::vector<double>& field, const Rect& r) const;

  const Netlist& nl_;
  size_t bx_, by_;
  double bw_, bh_;
  Rect core_;
  DensityOptions opts_;
  std::vector<double> cap_;  ///< free area per bin (total − fixed blockage)
  std::vector<double> use_;  ///< movable area per bin
  std::vector<double> cap_sat_;  ///< (bx+1)·(by+1) prefix sums over cap_
  std::vector<double> use_sat_;  ///< (bx+1)·(by+1) prefix sums over use_
};

}  // namespace complx
