// The approximate feasibility projection P_C (look-ahead legalization):
// given an iterate (x, y), produce a nearby placement satisfying the density
// target γ within every grid bin, handling standard cells, movable macros
// (via shredding) and hard region constraints.
//
// This is the "spreading" half of ComPLx; its output becomes the anchor
// placement (x°, y°) in the simplified Lagrangian of Formula 10, and the
// L1 displacement it reports is the penalty value Π(x, y) of Formula 3.
#pragma once

#include <memory>
#include <vector>

#include "density/grid.h"
#include "netlist/netlist.h"
#include "projection/alignment.h"
#include "projection/mote.h"

namespace complx {

struct ProjectionOptions {
  double gamma = 1.0;  ///< target utilization (ISPD 2006: 0.5 / 0.8 / 0.9)
  size_t bins_x = 0;   ///< 0 = derive from design size
  size_t bins_y = 0;
  /// Alignment groups enforced by the projection (after density spreading
  /// and region snapping).
  std::vector<AlignmentGroup> alignments;
};

/// Wall-clock split of one project() call. The placer accumulates these
/// into SolverStats; `complx_place --stats` prints the totals.
struct ProjectionTimers {
  double grid_build_s = 0.0;    ///< mote materialization + density deposit
  double region_find_s = 0.0;   ///< region search + mote→region ownership
  double spread_s = 0.0;        ///< per-region spreading
  double readback_s = 0.0;      ///< anchors, region/alignment snap, Π
};

struct ProjectionResult {
  Placement anchors;        ///< the C-feasible(-ish) projection P_C(x, y)
  double displacement_l1 = 0.0;  ///< Π: Σ_movable |x−x°| + |y−y°|
  size_t num_regions = 0;        ///< spreading regions processed
  /// Density overflow of the INPUT placement: Σ bin overflow above γ,
  /// divided by total movable area. The classic SimPL stopping metric.
  double input_overflow_ratio = 0.0;
  /// Shred clouds after spreading (only filled when export_shreds=true);
  /// used by the Figure 2 reproduction.
  std::vector<Mote> shreds;
  std::vector<Point> shred_origins;
  ProjectionTimers timers;  ///< phase split of this call
};

/// Sentinel owner index for motes outside every spreading region.
inline constexpr size_t kNoSpreadRegion = static_cast<size_t>(-1);

/// Exclusive, deterministic region ownership: for every mote, the index of
/// the FIRST region (in the given order) containing its center, or
/// kNoSpreadRegion. Rect::contains is inclusive on both edges, so a mote sitting
/// exactly on a shared region boundary is claimed by the earlier region
/// only — each mote is spread at most once and the per-region mote lists
/// are disjoint, the precondition for spreading regions in parallel.
/// (The historical code pushed such a mote into BOTH regions' lists: the
/// second spread consumed coordinates the first had already rewritten.)
std::vector<size_t> assign_motes_to_regions(const std::vector<Rect>& regions,
                                            const std::vector<Mote>& motes);

/// The projection caches its fixed-blockage grid and is NOT thread-safe
/// across concurrent calls on one instance.
class LookAheadLegalizer {
 public:
  LookAheadLegalizer(const Netlist& nl, const ProjectionOptions& opts);

  /// Number of bins chosen automatically for this netlist (finest scale:
  /// bins of ~3 row heights, capped for tractability).
  static size_t auto_bins(const Netlist& nl);

  /// Computes P_C at `p`. `p` itself is not modified.
  ProjectionResult project(const Placement& p,
                           bool export_shreds = false) const;

  /// Adjusts the grid resolution (the ComPLx driver coarsens/refines the
  /// grid over iterations as a runtime/accuracy trade-off, Section 6).
  void set_grid(size_t bins_x, size_t bins_y);

  /// Per-cell AREA inflation factors (SimPLR-style routability): standard
  /// cells are spread as if `factor×` larger, creating routing whitespace.
  /// Pass an empty vector to clear. Macros are unaffected.
  void set_inflation(Vec area_factors);
  size_t bins_x() const { return opts_.bins_x; }
  size_t bins_y() const { return opts_.bins_y; }

  const ProjectionOptions& options() const { return opts_; }

  /// Drops the cached capacity field so the next project() rebuilds the
  /// fixed-cell blockage scan from scratch (benchmark/test hook; callers
  /// normally rely on set_grid/set_inflation invalidation).
  void invalidate_grid_cache();

 private:
  /// The DensityGrid whose capacity field (fixed-cell blockage) matches the
  /// current (bins_x, bins_y). Constructing a DensityGrid rescans every
  /// fixed cell, so project() keeps one instance alive across calls and
  /// only re-deposits the movable field; set_grid drops it when the
  /// resolution actually changes (the driver calls set_grid every iteration
  /// and repeats the finest size once refinement saturates — those calls
  /// must hit the cache) and set_inflation drops it unconditionally.
  DensityGrid& ensure_grid() const;

  const Netlist& nl_;
  ProjectionOptions opts_;
  Vec inflation_;  ///< empty = no inflation
  mutable std::unique_ptr<DensityGrid> grid_;  ///< cached capacity field
};

}  // namespace complx
