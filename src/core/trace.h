// Per-iteration instrumentation of the primal-dual loop. Figure 1 (L, Φ, Π
// progressions), Figure 3 / Section S3 (final λ and iteration counts) and
// the Section S2 self-consistency statistics are all read from this trace.
#pragma once

#include <string>
#include <vector>

namespace complx {

struct IterationStats {
  int iteration = 0;
  double lambda = 0.0;
  /// Φ of the iterate (x, y). Not a lower bound on the optimum: the primal
  /// step minimizes the B2B-linearized L°, so weak duality does not hold
  /// for its iterate, and on some designs it exceeds the optimum.
  double phi_lower = 0.0;
  double phi_upper = 0.0;   ///< Φ of the anchors (x°, y°) — upper bound
  double pi = 0.0;          ///< Π: L1 distance to the projection
  double lagrangian = 0.0;  ///< Φ_lower + λ·Π
  double overflow_ratio = 0.0;  ///< density overflow of the iterate
  double gap = 0.0;             ///< (Φ_upper − Φ_lower) / Φ_upper
  size_t grid_bins = 0;
  /// Cumulative wall time at the end of this iteration. This is the only
  /// wall-clock field in the trace; the per-phase assembly/solve split of
  /// the QP workspace is run-cumulative and lives on SolverStats (surfaced
  /// via `complx_place --stats`), not per trace row, so the CSV keeps its
  /// strip-the-last-column comparison convention.
  double elapsed_s = 0.0;
  /// Rollback-and-backoff recoveries performed between the previous recorded
  /// iteration and this one (0 on healthy steps — faulted steps themselves
  /// are never recorded, so the trace stays finite by construction).
  int recoveries = 0;
};

/// Section S2 bookkeeping for the approximate projection's self-consistency
/// (Formula 11), checked between consecutive iterations.
struct SelfConsistencyStats {
  size_t checked = 0;       ///< consecutive pairs examined
  size_t premise_failed = 0;  ///< sufficient condition not satisfied
  size_t consistent = 0;    ///< premise held and conclusion held
  size_t inconsistent = 0;  ///< premise held but conclusion violated
  /// Same counters restricted to iterations where the spreading grid has
  /// reached its final resolution — the paper observes inconsistencies
  /// "mostly in the early global placement iterations (<5)", which for us
  /// is the grid-refinement phase.
  size_t late_checked = 0;
  size_t late_inconsistent = 0;

  double consistent_fraction() const {
    return checked ? static_cast<double>(consistent) /
                         static_cast<double>(checked)
                   : 1.0;
  }
  double inconsistent_fraction() const {
    return checked ? static_cast<double>(inconsistent) /
                         static_cast<double>(checked)
                   : 0.0;
  }
  double premise_failed_fraction() const {
    return checked ? static_cast<double>(premise_failed) /
                         static_cast<double>(checked)
                   : 0.0;
  }
  double late_inconsistent_fraction() const {
    return late_checked ? static_cast<double>(late_inconsistent) /
                              static_cast<double>(late_checked)
                        : 0.0;
  }
};

/// Writes the trace as CSV (one row per iteration).
void write_trace_csv(const std::string& path,
                     const std::vector<IterationStats>& trace);

}  // namespace complx
