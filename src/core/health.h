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
//                      detects divergence from the trace (Φ/Π/L blow-up
//                      beyond configurable ratios, non-finite λ);
//  * Checkpoint      — the best-so-far snapshot (anchors, iterate, λ, trace
//                      index) ranked by (grid resolution, overflow_ratio,
//                      then Φ_upper), so the run can always return the best
//                      known placement on divergence, iteration exhaustion,
//                      a wall-clock budget or SIGINT;
//  * FaultInjection  — test-only callbacks (same spirit as the existing
//                      post-projection hook) that corrupt the iterate, the
//                      multiplier, or force a PCG breakdown, so recovery can
//                      be proven end-to-end without compile-time switches.
//
// The recovery policy itself (rollback + λ backoff + CG relaxation) lives in
// the driver (core/placer.cpp); this header defines its knobs.
#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "core/trace.h"
#include "linalg/cg.h"
#include "netlist/netlist.h"
#include "util/atomic_file.h"
#include "util/fpcmp.h"
#include "util/parallel.h"

namespace complx {

/// Why the primal-dual loop returned.
enum class StopReason {
  Converged,      ///< overflow / duality-gap criterion met
  Plateau,        ///< warm restart stalled at its resumed quality (good exit)
  MaxIterations,  ///< iteration budget exhausted before convergence
  TimeLimit,      ///< wall-clock budget exhausted
  Cancelled,      ///< external cancel flag raised (e.g. SIGINT)
  Diverged,       ///< numerical failure and recovery retries exhausted
};
const char* to_string(StopReason r);

/// The first problem detected in one iteration (None = healthy).
enum class HealthFault {
  None,
  NonFiniteIterate,   ///< NaN/Inf coordinate after the primal step
  NonFiniteAnchors,   ///< NaN/Inf coordinate in the projection output
  NonFiniteLambda,    ///< multiplier overflowed or was corrupted
  NonFiniteStats,     ///< Φ/Π/L/overflow evaluated to NaN/Inf
  ObjectiveBlowup,    ///< Φ_lower grew beyond ratio × best seen
  PenaltyBlowup,      ///< Π grew beyond ratio × largest healthy value
  LagrangianBlowup,   ///< L grew beyond ratio × best seen
  CgBreakdown,        ///< PCG reported pAp <= 0 (system not SPD)
};
const char* to_string(HealthFault f);

/// Aggregate per-run statistics of the inner linear solves (both axes, all
/// iterations, including the λ = 0 warm-up). Previously solve_qp_iteration's
/// CgResults were discarded; now the driver folds them in here.
struct SolverStats {
  size_t solves = 0;
  size_t nonconverged = 0;        ///< budget exhausted above tolerance
  size_t breakdowns = 0;          ///< pAp <= 0 exits
  size_t total_cg_iterations = 0;
  double worst_residual = 0.0;    ///< max final ||b - Ax|| over all solves

  // QP-workspace instrumentation (copied from QpWorkspaceStats by the
  // driver). The assembly/solve split shows where each primal step's wall
  // time went.
  //
  // pattern_hits/pattern_misses counted the retired CSR sparsity-pattern
  // cache. Nothing writes them any more; they stay, always zero, only
  // because the end-to-end benchmark harness still reads them.
  size_t pattern_hits = 0;
  size_t pattern_misses = 0;
  double assembly_s = 0.0;  ///< net model + stamping + CSR assembly
  double solve_s = 0.0;     ///< PCG wall time

  // Feasibility-projection phase split, accumulated over every project()
  // call (ProjectionTimers folded in by the driver). grid-build covers mote
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

  /// Folds another run's statistics in (sums; worst_residual takes the max)
  /// — the multilevel V-cycle reports one SolverStats for all its levels.
  SolverStats& operator+=(const SolverStats& o);
};

/// Event counters kept by the watchdog (exposed on PlaceResult).
struct HealthStats {
  size_t checks = 0;             ///< iterations examined
  size_t faults = 0;             ///< total faults detected
  size_t nonfinite_iterate = 0;
  size_t nonfinite_anchors = 0;
  size_t nonfinite_lambda = 0;
  size_t nonfinite_stats = 0;
  size_t objective_blowups = 0;
  size_t penalty_blowups = 0;
  size_t lagrangian_blowups = 0;
  size_t cg_breakdowns = 0;

  void count(HealthFault f);
  HealthStats& operator+=(const HealthStats& o);
};

/// Divergence thresholds. The ratios are deliberately loose: the watchdog
/// exists to catch runaway numerics, not to second-guess a noisy but
/// convergent trajectory.
struct HealthOptions {
  bool enabled = true;
  double phi_blowup_ratio = 50.0;   ///< Φ_lower vs best (smallest) seen
  double pi_blowup_ratio = 20.0;    ///< Π vs largest healthy value seen
  double lagrangian_blowup_ratio = 100.0;  ///< L vs best (smallest) seen
};

/// Rollback-and-backoff policy applied when the monitor flags a bad step.
struct RecoveryOptions {
  int max_retries = 3;          ///< consecutive rollbacks before giving up
  double lambda_backoff = 0.5;  ///< λ multiplier per consecutive retry
  /// Applied from the second consecutive PCG breakdown onward: the CG
  /// tolerance is multiplied by cg_tol_relax and diag_shift is added to the
  /// system diagonal (Tikhonov regularization) to restore positive
  /// definiteness.
  double cg_tol_relax = 10.0;
  double diag_shift = 1e-6;
};

/// Validates iterates and per-iteration statistics. All checks are
/// read-only: on a healthy run the monitor perturbs nothing — the
/// determinism suite holds bitwise with the watchdog enabled.
class HealthMonitor {
 public:
  HealthMonitor(const Netlist& nl, const HealthOptions& opts)
      : nl_(nl), opts_(opts) {}

  /// True iff every movable coordinate of `p` is finite.
  static bool placement_finite(const Netlist& nl, const Placement& p);

  /// Examines one iteration's statistics against the references accumulated
  /// from previously accepted iterations. Does not update references.
  HealthFault check_stats(const IterationStats& st) const;

  /// Accepts a healthy iteration: folds its values into the divergence
  /// references (best Φ/L, largest Π).
  void accept(const IterationStats& st);

  const HealthStats& stats() const { return stats_; }
  HealthStats& stats() { return stats_; }
  const Netlist& netlist() const { return nl_; }

 private:
  const Netlist& nl_;
  HealthOptions opts_;
  HealthStats stats_;
  double best_phi_ = std::numeric_limits<double>::infinity();
  double best_lagrangian_ = std::numeric_limits<double>::infinity();
  double max_pi_ = 0.0;
};

/// Best-so-far snapshot of the loop state, ranked by (grid resolution, then
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
  double lambda = 0.0;
  double pi = 0.0;     ///< Π at the checkpoint (needed to re-seed the loop)
  int trace_index = -1;
  size_t grid_bins = 0;  ///< density-grid resolution the overflow was measured on
  double overflow = std::numeric_limits<double>::infinity();
  double phi_upper = std::numeric_limits<double>::infinity();

  bool valid() const { return trace_index >= 0; }

  /// Strict-weak ranking used both for updates and for the final
  /// "is the checkpoint better than the last iterate" decision.
  static bool ranks_better(size_t bins_a, double overflow_a,
                           double phi_upper_a, size_t bins_b,
                           double overflow_b, double phi_upper_b) {
    if (bins_a != bins_b) return bins_a > bins_b;
    if (!fp::exactly_equal(overflow_a, overflow_b))
      return overflow_a < overflow_b;
    return phi_upper_a < phi_upper_b;
  }

  /// Snapshots the given state if it is finite and ranks at least as well
  /// as the stored one (ties refresh, so the checkpoint tracks the most
  /// recent equally-good state). Returns true if the snapshot was taken.
  bool offer(const Netlist& nl, const Placement& it, const Placement& anc,
             double lam, double pi_value, int index, size_t bins, double ovfl,
             double phi_up);
};

/// Mutex-guarded Checkpoint holder: the driver offers every healthy
/// iteration, and any thread — the loop itself on rollback/exit, a watchdog
/// or service thread polling progress — reads a consistent snapshot. The
/// lock discipline is declared (COMPLX_GUARDED_BY) and proven by the CI
/// clang job's -Wthread-safety build; on the placer's hot path the store
/// is touched once per iteration, so the uncontended lock cost is noise.
class CheckpointStore {
 public:
  /// Checkpoint::offer under the lock. Returns true if the snapshot was
  /// taken.
  bool offer(const Netlist& nl, const Placement& it, const Placement& anc,
             double lam, double pi_value, int index, size_t bins, double ovfl,
             double phi_up) COMPLX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return best_.offer(nl, it, anc, lam, pi_value, index, bins, ovfl, phi_up);
  }

  bool valid() const COMPLX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return best_.valid();
  }

  /// Consistent copy of the best-so-far state (rollback targets, progress
  /// polls). Copying the placements is deliberate: the caller gets a frozen
  /// state, never a reference another thread may overwrite.
  Checkpoint snapshot() const COMPLX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return best_;
  }

  /// Moves the checkpoint out (final hand-off; the store is empty after).
  Checkpoint take() COMPLX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    Checkpoint out = std::move(best_);
    best_ = Checkpoint{};
    return out;
  }

 private:
  mutable Mutex mu_;
  Checkpoint best_ COMPLX_GUARDED_BY(mu_);
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

  /// I/O fault hooks (short writes, failed fsync/rename, ENOSPC, in-flight
  /// bit flips) consumed by util/atomic_file and the snapshot store — the
  /// file-system counterpart of the numeric hooks above.
  IoFaultInjection io;

  bool any() const {
    return corrupt_iterate || corrupt_lambda || force_cg_breakdown ||
           io.any();
  }
};

}  // namespace complx
