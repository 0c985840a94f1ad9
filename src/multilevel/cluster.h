// Netlist coarsening for multilevel placement (the mPL6 family the paper
// compares against): heavy-edge matching merges strongly connected cell
// pairs into clusters, producing a smaller netlist whose placement can be
// interpolated back down.
//
// Connectivity weight between cells a, b: Σ over shared nets of
// w_e/(P_e − 1) (the clique-model edge weight). Macros and fixed cells are
// never merged — they map 1:1 to the coarse level.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace complx {

struct ClusterOptions {
  uint64_t seed = 1;  ///< visit order randomization
};

struct CoarseLevel {
  Netlist netlist;  ///< the coarsened netlist
  /// fine cell id -> coarse cell id (size = fine cell count).
  std::vector<CellId> fine_to_coarse;
};

/// One level of heavy-edge-matching coarsening. The coarse netlist
/// preserves fixed cells and macros verbatim (same positions); merged
/// standard-cell pairs become a single cell of the combined area (row
/// height, widened). Nets are re-targeted; nets collapsing to a single
/// coarse cell are dropped.
CoarseLevel coarsen(const Netlist& fine, const ClusterOptions& opts = {});

/// Interpolates a coarse placement down: every fine cell takes its coarse
/// cluster's center.
Placement interpolate(const Netlist& fine,
                      const std::vector<CellId>& fine_to_coarse,
                      const Placement& coarse_placement);

}  // namespace complx
