// Smooth density penalty for nonconvex analytical placement (the
// APlace/NTUPlace3/mPL6 family the paper contrasts with ComPLx's global
// feasibility projection).
//
// Each movable cell deposits a bell-shaped (cosine) footprint over nearby
// bins; the penalty is Σ_b max(0, D_b − γ·cap_b)², differentiable in the
// cell centers. This is the "fit demand distribution to smooth functions
// using kernel-density estimation" approach of Section 3, with the local
// gradients whose force-modulation ambiguity the paper criticizes.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "density/grid.h"
#include "netlist/netlist.h"

namespace complx {

/// Health counters the penalty accumulates across evaluations. Drivers fold
/// these into their own result structs (the density layer cannot include
/// core, so the counter surfaces through this struct instead).
struct DensityStats {
  /// Cell centers that sat outside the core (or went non-finite mid-solve)
  /// and were clamped onto it before depositing — each one used to lose its
  /// entire area silently.
  size_t clamped_cells = 0;
};

struct DensityPenaltyOptions {
  size_t bins = 0;      ///< 0 = auto (~sqrt(movables/4))
  DensityOptions grid;  ///< query mode of the internal DensityGrid
};

/// A differentiable density model: a scalar penalty with its gradient in
/// the cell centers, plus the hard overflow metric the outer loops use as a
/// stopping rule. Caches its fixed-blockage grid and is NOT thread-safe
/// across concurrent calls on one instance.
class DensityPenalty {
 public:
  DensityPenalty(const Netlist& nl, const DensityPenaltyOptions& opts);

  /// Penalty value; gx/gy accumulate (are overwritten with) its gradient
  /// with respect to cell centers. Centers outside the core (including
  /// non-finite coordinates) are clamped onto it before depositing — their
  /// area participates at the boundary instead of silently vanishing — and
  /// each such cell bumps stats().clamped_cells.
  double value_and_grad(const Placement& p, Vec& gx, Vec& gy) const;

  /// Hard (non-smoothed) overflow ratio at the same grid — the stopping
  /// metric, comparable to the projection-based placers'. Evaluated against
  /// a cached DensityGrid: only the movable field is re-deposited per call;
  /// the fixed-blockage capacity scan runs once at construction.
  double overflow_ratio(const Placement& p) const;

  size_t bins() const { return bins_; }

  const DensityStats& stats() const { return stats_; }

  /// The cached internal grid. Exposed so tests can assert the configured
  /// DensityOptions (prefix sums on/off) actually reach it.
  const DensityGrid& grid() const { return ensure_grid(); }

 private:
  DensityGrid& ensure_grid() const;

  const Netlist& nl_;
  DensityPenaltyOptions opts_;
  size_t bins_;
  double bw_, bh_;
  double radius_;  ///< bell radius in layout units (x); separate for y
  double radius_y_;
  std::vector<double> capacity_;  ///< γ-scaled free area per bin
  /// Cached grid for overflow_ratio (fixed blockage scanned once, like
  /// projection/lal.h's capacity cache) and health counters. Both mutable
  /// behind const evaluation calls; the class is not thread-safe across
  /// concurrent calls on one instance.
  mutable std::unique_ptr<DensityGrid> grid_;
  mutable DensityStats stats_;
};

}  // namespace complx
