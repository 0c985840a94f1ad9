// Multilevel global placement (the mPL6-style scheme the paper benchmarks
// against): coarsen the netlist by heavy-edge matching, place the coarsest
// level with the full ComPLx machinery, then interpolate down and refine
// each finer level with a short warm-started ComPLx run.
//
// The attraction is runtime on very large instances: the expensive
// from-scratch convergence happens on a much smaller netlist, and the fine
// levels only polish. bench_multilevel measures the trade against flat
// ComPLx.
#pragma once

#include "core/placer.h"
#include "multilevel/cluster.h"

namespace complx {

struct MultilevelConfig {
  int max_levels = 3;
  size_t coarsest_cells = 2500;  ///< stop coarsening below this
  ComplxConfig coarse;           ///< full run at the coarsest level
  /// Refinement run per finer level (warm-started; fewer iterations).
  int refine_iterations = 12;
  ClusterOptions clustering;
};

/// The V-cycle as one PlaceResult (DESIGN.md §4.10): counters summed over
/// the levels, their traces concatenated coarsest first, the end state of the
/// last level that ran. The levels share one deadline.
struct MultilevelResult {
  PlaceResult place;
  /// Cells per level, fine -> coarse (levels used = size() - 1). Empty
  /// when place_auto took the flat path.
  std::vector<size_t> level_sizes;
  /// Stop reason per level_sizes entry (index 0 is the input netlist, so
  /// level_stops[0] == place.stop). A level carried down without re-solving
  /// records the stop it inherited.
  std::vector<StopReason> level_stops;
};

class MultilevelPlacer {
 public:
  MultilevelPlacer(const Netlist& nl, const MultilevelConfig& cfg);
  MultilevelResult place();

 private:
  const Netlist& nl_;
  MultilevelConfig cfg_;
};

}  // namespace complx
