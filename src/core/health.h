// Numerical-safety watchdog for the primal-dual loop.
//
// The ComPLx iteration is numerically well-behaved on sane inputs, but a
// production placer cannot assume sane inputs: a near-singular system can
// break the PCG solve, an unlucky λ schedule can overflow, and a single
// non-finite coordinate poisons every downstream kernel (projection,
// density, HPWL). This module provides the three pieces the driver uses to
// degrade gracefully instead of emitting NaN placements:
//
//  * HealthMonitor   — validates every iterate/projection for NaN/Inf and
//                      detects divergence from the trace (Φ/L beyond a
//                      fixed ratio of the previous Φ_upper, the paper's
//                      primal bound; Π beyond a fixed ratio of its in-core
//                      bound; non-finite λ);
//  * Checkpoint      — the best-so-far snapshot (anchors, iterate and their
//                      trace row) ranked by (grid resolution, overflow_ratio,
//                      then Φ_upper), so the run can always return the best
//                      known placement on divergence, iteration exhaustion,
//                      a wall-clock budget or SIGINT;
//  * FaultInjection  — test-only callbacks (same spirit as the existing
//                      post-projection hook) that corrupt the iterate, the
//                      multiplier, or force a PCG breakdown, so recovery can
//                      be proven end-to-end without compile-time switches.
//
// The recovery policy itself (rollback + λ backoff + CG relaxation, the
// rollback-cycle stop) lives in the placer loop (core/placer.cpp); this
// header defines its knobs.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <functional>
#include <string>

#include "core/trace.h"
#include "linalg/cg.h"
#include "netlist/netlist.h"
#include "util/fpcmp.h"

namespace complx {

struct ProjectionTimers;   // projection/lal.h
struct QpIterationResult;  // qp/solver.h

/// Why the primal-dual loop returned.
enum class StopReason {
  Converged,      ///< overflow / duality-gap criterion met
  Plateau,        ///< warm restart stalled at its resumed quality (good exit)
  MaxIterations,  ///< iteration budget exhausted before convergence
  TimeLimit,      ///< wall-clock budget exhausted
  Cancelled,      ///< external cancel flag raised (e.g. SIGINT)
  Diverged,       ///< numerical failure and recovery retries exhausted
  RollbackCycle,  ///< a new fault would roll back to a checkpoint an earlier
                  ///< recovery already restarted from (a limit cycle)
};
const char* to_string(StopReason r);

/// The first problem detected in one iteration (None = healthy).
enum class HealthFault {
  None,
  NonFiniteIterate,   ///< NaN/Inf coordinate after the primal step
  NonFiniteAnchors,   ///< NaN/Inf coordinate in the projection output
  NonFiniteLambda,    ///< multiplier overflowed or was corrupted
  NonFiniteStats,     ///< Φ/Π/L/overflow evaluated to NaN/Inf
  ObjectiveBlowup,    ///< Φ_lower beyond ratio × last accepted Φ_upper
  PenaltyBlowup,      ///< Π beyond ratio × the in-core bound
  LagrangianBlowup,   ///< L beyond ratio × last accepted Φ_upper
  CgBreakdown,        ///< PCG reported pAp <= 0 (system not SPD)
  kCount,             ///< number of values above; not a fault, keep last
};
const char* to_string(HealthFault f);

/// Aggregate per-run statistics of the inner linear solves (both axes, all
/// iterations, including the λ = 0 warm-up).
struct SolverStats {
  size_t solves = 0;
  size_t nonconverged = 0;        ///< budget exhausted above tolerance
  size_t breakdowns = 0;          ///< pAp <= 0 exits
  size_t total_cg_iterations = 0;
  double worst_residual = 0.0;    ///< max final ||b - Ax|| over all solves

  // Primal-step instrumentation (summed by add(const QpIterationResult&)).
  // The assembly/solve split shows where each primal step's wall time went.
  //
  // pattern_hits/pattern_misses counted the retired CSR sparsity-pattern
  // cache. Nothing writes them any more; they stay, always zero, only
  // because the end-to-end benchmark harness still reads them.
  size_t pattern_hits = 0;
  size_t pattern_misses = 0;
  double assembly_s = 0.0;  ///< net model + stamping + CSR assembly
  double solve_s = 0.0;     ///< PCG wall time

  // Feasibility-projection phase split, accumulated over every project()
  // call by add(const ProjectionTimers&). grid-build covers mote
  // materialization plus the movable density deposit — the fixed blockage
  // field is cached inside LookAheadLegalizer and only rebuilt when the
  // grid resolution changes.
  size_t projections = 0;
  double proj_grid_build_s = 0.0;
  double proj_region_find_s = 0.0;
  double proj_spread_s = 0.0;
  double proj_readback_s = 0.0;

  void add(const CgResult& r) {
    ++solves;
    if (!r.converged) ++nonconverged;
    if (r.breakdown) ++breakdowns;
    total_cg_iterations += r.iterations;
    if (r.residual_norm > worst_residual) worst_residual = r.residual_norm;
  }

  /// Folds one primal step in: both axes' CG results and its timings.
  void add(const QpIterationResult& r);

  /// Folds one project() call in: counts it and sums its phase timers.
  void add(const ProjectionTimers& t);

  /// Folds another run's statistics in (sums; worst_residual takes the max)
  /// — the multilevel V-cycle reports one SolverStats for all its levels.
  SolverStats& operator+=(const SolverStats& o);
};

/// Event counters kept by the watchdog (exposed on PlaceResult).
struct HealthStats {
  size_t faults = 0;  ///< total faults detected (the sum of by_kind)
  /// Faults per kind, indexed by HealthFault; the None slot stays 0.
  std::array<size_t, static_cast<size_t>(HealthFault::kCount)> by_kind{};

  /// Counts one detected fault; None counts nothing.
  void count(HealthFault f);
  size_t operator[](HealthFault f) const {
    return by_kind[static_cast<size_t>(f)];
  }
  HealthStats& operator+=(const HealthStats& o);
};

/// Divergence thresholds. The ratios are deliberately loose: the watchdog
/// exists to catch runaway numerics, not to second-guess a noisy but
/// convergent trajectory.
inline constexpr double kPhiBlowupRatio = 50.0;  ///< Φ_lower vs Φ_upper(k−1)
inline constexpr double kPiBlowupRatio = 20.0;   ///< Π vs the in-core bound
inline constexpr double kLagrangianBlowupRatio = 100.0;  ///< L vs Φ_upper(k−1)

/// Rollback-and-backoff policy applied when the monitor flags a bad step:
/// at most kMaxRecoveryRetries consecutive rollbacks, each multiplying the
/// checkpoint's λ by kRecoveryLambdaBackoff once more. From the second
/// consecutive PCG breakdown onward the CG tolerance is also multiplied by
/// kRecoveryCgTolRelax and kRecoveryDiagShift is added to the system
/// diagonal (Tikhonov regularization) to restore positive definiteness.
/// A run of consecutive rollbacks is one recovery; a later recovery that
/// would restart from the checkpoint the previous one restarted from would
/// only repeat it, so the run stops with StopReason::RollbackCycle instead.
inline constexpr int kMaxRecoveryRetries = 3;
inline constexpr double kRecoveryLambdaBackoff = 0.5;
inline constexpr double kRecoveryCgTolRelax = 10.0;
inline constexpr double kRecoveryDiagShift = 1e-6;

/// Validates iterates and per-iteration statistics. All checks are
/// read-only: on a healthy run the monitor perturbs nothing — the
/// determinism suite holds bitwise with the watchdog enabled.
///
/// Blow-up references. The primal step minimizes L° = Φ + λ‖x − x°‖₁ over
/// x, and x = x° is a feasible point with L° = Φ(x°) = Φ_upper, so a sane
/// iterate satisfies Φ_lower(k) ≤ L°(k) ≲ Φ_upper(k−1), up to the B2B
/// linearization error. Φ_lower and L are therefore compared with the
/// Φ_upper of the last accepted iteration, a reference that moves with the
/// trajectory instead of pinning to the collapsed λ = 0 solution. Π is the
/// L1 distance between two in-core placements, so it never exceeds
/// n_movable × (core width + core height) — a bound a resumed, already
/// spread run cannot shrink.
class HealthMonitor {
 public:
  /// `nl` sizes the in-core bound on Π.
  explicit HealthMonitor(const Netlist& nl);

  /// True iff every movable coordinate of `p` is finite.
  static bool placement_finite(const Netlist& nl, const Placement& p);

  /// Examines one iteration's statistics against the last accepted
  /// iteration. Before the first accept() only non-finite values are
  /// flagged. Does not update references.
  HealthFault check_stats(const IterationStats& st) const;

  /// Accepts a healthy iteration: its Φ_upper becomes the blow-up reference.
  void accept(const IterationStats& st);

  const HealthStats& stats() const { return stats_; }
  HealthStats& stats() { return stats_; }

 private:
  HealthStats stats_;
  double pi_bound_;  ///< n_movable × (core width + core height)
  bool accepted_ = false;
  double last_phi_upper_ = 0.0;  ///< Φ_upper of the last accepted iteration
};

/// Best-so-far snapshot of the loop state: a trace row and the two
/// placements it was measured on, ranked by (grid resolution, then
/// overflow_ratio, then Φ_upper): the placement ultimately handed to
/// legalization is the anchor set, so "best" means densest-feasible first,
/// cheapest second. Grid resolution leads because overflow ratios are only
/// comparable at equal bin counts — the spreading grid starts coarse (where
/// overflow is artificially low) and only refines, so a finer-grid row is
/// always later and supersedes coarser ones. This also keeps the rollback
/// target recent instead of pinned to the flattering early measurements.
struct Checkpoint {
  Placement iterate;   ///< (x, y) at the checkpointed iteration
  Placement anchors;   ///< (x°, y°) — the legalizable output
  IterationStats row;  ///< the trace row of that iteration (λ, Π, overflow…)

  Checkpoint() { row.iteration = -1; }  // no row until the first offer
  bool valid() const { return row.iteration >= 0; }

  /// Strict-weak ranking used both for updates and for the final
  /// "is the checkpoint better than the last iterate" decision.
  static bool ranks_better(const IterationStats& a, const IterationStats& b) {
    if (a.grid_bins != b.grid_bins) return a.grid_bins > b.grid_bins;
    if (!fp::exactly_equal(a.overflow_ratio, b.overflow_ratio))
      return a.overflow_ratio < b.overflow_ratio;
    return a.phi_upper < b.phi_upper;
  }

  /// Snapshots the given state if its row's λ, Π, overflow and Φ_upper and
  /// both placements are finite and the row ranks at least as well as the
  /// stored one (ties refresh, so the checkpoint tracks the most recent
  /// equally-good state). Returns true if the snapshot was taken.
  bool offer(const Netlist& nl, const Placement& it, const Placement& anc,
             const IterationStats& st);
};

/// Test-only fault hooks. Production configs leave every member empty; the
/// driver consults them (cheap null checks) so recovery paths are testable
/// without compile-time switches.
struct FaultInjection {
  /// Called after each primal step; may corrupt the iterate in place.
  std::function<void(int iteration, Placement&)> corrupt_iterate;
  /// Maps the multiplier used for this iteration's anchors; return a
  /// non-finite value to simulate λ overflow.
  std::function<double(int iteration, double lambda)> corrupt_lambda;
  /// Return true to force the PCG solves of this iteration to report
  /// breakdown without solving (QP model only).
  std::function<bool(int iteration)> force_cg_breakdown;
};

}  // namespace complx
