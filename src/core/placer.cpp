#include "core/placer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "nlcg/nlcg.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"
#include "wl/hpwl.h"
#include "wl/smooth.h"

namespace complx {

namespace {

// Pseudonet linearization ε of the L1 anchor term, in row heights
// (Section 3: ε = 1.5 row heights).
constexpr double kEpsilonRows = 1.5;
// Per-macro λ multiplier cap (multiplier = macro area / average cell area,
// Section 5): keeps the largest blocks' anchors from dominating the system's
// conditioning.
constexpr double kMacroLambdaCap = 20.0;
// B2B relinearization passes of the λ = 0 minimization of Φ that precedes
// the first projection on a cold start.
constexpr int kInitialIterations = 3;
// Formula 12's scale: λ reaches its balance value λ* in about this many
// iterations whatever the instance size (Section S3's flat iteration
// counts).
constexpr double kLambdaRampSteps = 18.0;
// Per-iteration bin-count growth of the coarse-to-fine grid schedule
// (Section 6's runtime/accuracy trade-off).
constexpr double kGridRefineRate = 1.3;
// Stopping rule (Section 4): the iterate's overflow ratio below
// kStopOverflow, or — the refined ComPLx criterion — a relative duality gap
// below kStopGap while the overflow is under twice that.
constexpr double kStopOverflow = 0.10;
constexpr double kStopGap = 0.08;
// Log-sum-exp instantiation (Section S1): smoothing in row heights, and
// nonlinear-CG steps per primal iteration.
constexpr double kLseGammaRows = 2.0;
constexpr int kNlcgIterations = 60;
// Warm starts begin with λ at this fraction of its balance value λ*.
constexpr double kWarmLambdaFraction = 0.5;
// resume() only: the iteration floor, and the plateau stop — the run exits
// once Φ̄ fails to improve by kResumePlateauTol (relative) for
// kResumePlateauWindow consecutive healthy iterations at the finest grid.
constexpr int kResumeMinIterations = 3;
constexpr int kResumePlateauWindow = 4;
constexpr double kResumePlateauTol = 1e-3;

/// L1 distance between two placements over movable cells only.
double movable_l1(const Netlist& nl, const Placement& a, const Placement& b) {
  double s = 0.0;
  for (CellId id : nl.movable_cells())
    s += std::abs(a.x[id] - b.x[id]) + std::abs(a.y[id] - b.y[id]);
  return s;
}

/// Deterministic symmetry-breaking jitter for the initial placement: all
/// movable cells start at the core center, displaced by a hash of their id
/// within a 2-row-radius disc.
void init_at_center(const Netlist& nl, Placement& p) {
  const Point c = nl.core().center();
  const double r = 2.0 * nl.row_height();
  Rng rng(0xC0417Cull);
  for (CellId id : nl.movable_cells()) {
    p.x[id] = c.x + rng.uniform(-r, r);
    p.y[id] = c.y + rng.uniform(-r, r);
  }
}

}  // namespace

ComplxPlacer::ComplxPlacer(const Netlist& nl, const ComplxConfig& cfg)
    : nl_(nl), cfg_(cfg), criticality_(nl.num_cells(), 1.0) {
  if (cfg_.density_backend != "spread")
    throw std::invalid_argument("unknown density backend '" +
                                cfg_.density_backend + "' (only 'spread')");
  if (cfg_.projection.gamma <= 0.0)
    cfg_.projection.gamma = nl.target_density();
  // Footnote 6 of the paper: the lower bound on pin separation in the
  // linearized model is the average module width. Callers can override.
  if (cfg_.qp.b2b.min_separation <= 1.0)
    cfg_.qp.b2b.min_separation = std::max(1.0, nl.average_movable_width());
}

void ComplxPlacer::set_cell_criticality(Vec criticality) {
  if (criticality.size() != nl_.num_cells())
    throw std::invalid_argument("criticality size mismatch");
  criticality_ = std::move(criticality);
}

AnchorSet ComplxPlacer::make_anchors(const Placement& iterate,
                                     const Placement& proj,
                                     double lambda) const {
  AnchorSet anchors(nl_.num_cells());
  const double eps = kEpsilonRows * nl_.row_height();
  const double avg_area =
      std::max(nl_.average_movable_width() * nl_.row_height(), 1e-12);

  for (CellId id : nl_.movable_cells()) {
    const Cell& c = nl_.cell(id);
    // Per-macro λ scaling (Section 5): larger blocks get proportionally
    // stronger anchors so they stabilize early; capped for conditioning.
    double mult = criticality_[id];
    if (c.is_macro())
      mult *= std::min(kMacroLambdaCap, c.area() / avg_area);

    const double lx = lambda * mult;
    anchors.target_x[id] = proj.x[id];
    anchors.target_y[id] = proj.y[id];
    const double dx = std::abs(iterate.x[id] - proj.x[id]);
    const double dy = std::abs(iterate.y[id] - proj.y[id]);
    switch (cfg_.modulation) {
      case AnchorModulation::DistanceNormalized:
        // ComPLx: the linearized L1 penalty — force saturates at ~2λ·m.
        anchors.weight_x[id] = lx / (dx + eps);
        anchors.weight_y[id] = lx / (dy + eps);
        break;
      case AnchorModulation::Fixed:
        // Plain spring: force grows linearly with displacement.
        anchors.weight_x[id] = lx / eps;
        anchors.weight_y[id] = lx / eps;
        break;
      case AnchorModulation::Thresholded: {
        // Spring force clipped at the cap distance (RQL-ish ad hoc rule):
        // a plain spring below T rows, constant force beyond.
        const double cap = cfg_.threshold_rows * nl_.row_height();
        anchors.weight_x[id] = dx <= cap ? lx / eps : lx * cap / (dx * eps);
        anchors.weight_y[id] = dy <= cap ? lx / eps : lx * cap / (dy * eps);
        break;
      }
    }
  }
  return anchors;
}

void ComplxPlacer::check_self_consistency(const Placement& prev_iter,
                                          const Placement& prev_proj,
                                          const Placement& cur_iter,
                                          const Placement& cur_proj,
                                          bool grid_final,
                                          SelfConsistencyStats& stats) const {
  ++stats.checked;
  if (grid_final) ++stats.late_checked;
  // Distances are compared with a 0.5% relative margin: near convergence
  // the four L1 distances approach each other and strict comparisons flip
  // on noise — Formula 11 is about genuine ordering, not ties.
  constexpr double kMargin = 1.005;
  // Formula 11 premise: the new iterate is closer to the old projection
  // than the old iterate was.
  const double old_to_oldproj = movable_l1(nl_, prev_iter, prev_proj);
  const double new_to_oldproj = movable_l1(nl_, cur_iter, prev_proj);
  if (!(old_to_oldproj > kMargin * new_to_oldproj)) {
    ++stats.premise_failed;
    return;
  }
  // Conclusion: it is also closer to its own projection.
  const double old_to_newproj = movable_l1(nl_, prev_iter, cur_proj);
  const double new_to_newproj = movable_l1(nl_, cur_iter, cur_proj);
  if (kMargin * old_to_newproj > new_to_newproj) {
    ++stats.consistent;
  } else {
    ++stats.inconsistent;
    if (grid_final) ++stats.late_inconsistent;
  }
}

double ComplxPlacer::estimate_lambda_star(const Netlist& nl) {
  double force = 0.0;
  for (NetId e = 0; e < nl.num_nets(); ++e) {
    const Net& net = nl.net(e);
    if (net.num_pins < 2) continue;
    const double p = static_cast<double>(net.num_pins);
    force += net.weight * 2.0 * (2.0 * p - 3.0) / (p - 1.0);
  }
  const double per_cell =
      force / std::max<double>(1.0, static_cast<double>(nl.num_movable()));
  return std::max(1e-9, 0.5 * per_cell);
}

PlaceResult ComplxPlacer::place() { return place_impl(nullptr, false); }

PlaceResult ComplxPlacer::place_from(const Placement& initial) {
  return place_impl(&initial, false);
}

PlaceResult ComplxPlacer::resume(const Placement& stored) {
  return place_impl(&stored, true);
}

bool recordable(const PlaceResult& r) {
  return !r.failed && (r.stop == StopReason::Converged ||
                       r.stop == StopReason::Plateau ||
                       r.stop == StopReason::MaxIterations);
}

PlaceResult ComplxPlacer::place_impl(const Placement* initial, bool resume) {
  if (initial && initial->size() != nl_.num_cells())
    throw std::invalid_argument("initial placement size mismatch");
  if (cfg_.threads > 0) set_global_threads(cfg_.threads);

  Timer timer;
  PlaceResult result;

  // Both warm flavours skip the bootstrap and the λ=0 phase and jump λ
  // toward the balance point; resume() additionally starts at the finest
  // grid (the stored solution is already spread — coarse re-projection
  // would shred it), lowers the iteration floor and arms the plateau stop.
  const bool warm = initial != nullptr;
  result.warm_started = resume;
  Placement p = warm ? *initial : nl_.snapshot();
  if (!warm) init_at_center(nl_, p);
  const VarMap vars(nl_);

  // Mutable copy: the recovery policy may relax the CG tolerance and add a
  // diagonal shift after repeated PCG breakdown.
  QpOptions qp_opts = cfg_.qp;
  bool inject_breakdown = false;  // armed per-iteration by the fault hooks

  // Iteration-persistent QP workspace: stamp/CSR buffers, PCG scratch,
  // spring lists. Bitwise-neutral (test_qp compares it against fresh
  // assembly).
  QpWorkspace qp_ws;

  // Primal minimizer: linearized-quadratic B2B by default, log-sum-exp via
  // nonlinear CG when configured (Section S1 instantiation). Returns true
  // when the linear solver reported a breakdown (QP path only).
  std::unique_ptr<LseWl> lse;
  if (cfg_.use_lse)
    lse = std::make_unique<LseWl>(nl_, kLseGammaRows * nl_.row_height());
  auto primal_step = [&](const AnchorSet* anchors) -> bool {
    if (lse) {
      NlcgOptions o;
      o.max_iterations = kNlcgIterations;
      minimize_smooth_placement(nl_, *lse, p, anchors, o);
      return false;
    }
    QpOptions opts = qp_opts;
    opts.cg.inject_breakdown = inject_breakdown;
    const QpIterationResult qr =
        solve_qp_iteration(nl_, vars, p, anchors, opts, qp_ws);
    result.solver.add(qr);
    if (!qr.fully_converged())
      log_debug("cg non-converged (residual x=%.3g y=%.3g)",
                qr.cg_x.residual_norm, qr.cg_y.residual_norm);
    return qr.breakdown();
  };

  // --- Initial unconstrained minimization of Φ (λ = 0) -------------------
  // Skipped on warm starts: the incoming placement is already spread, and
  // an unconstrained solve would collapse it.
  if (!warm)
    for (int i = 0; i < kInitialIterations; ++i) primal_step(nullptr);

  // --- Projection machinery and grid schedule ----------------------------
  LookAheadLegalizer lal(nl_, cfg_.projection);
  const size_t finest = lal.bins_x();
  double bins =
      resume
          ? static_cast<double>(finest)
          : std::max(4.0, static_cast<double>(finest) /
                              std::max(cfg_.grid_coarsening, 1.0));
  lal.set_grid(static_cast<size_t>(bins), static_cast<size_t>(bins));

  ProjectionResult proj = lal.project(p);
  result.solver.add(proj.timers);
  if (post_projection_) {
    post_projection_(proj.anchors);
    proj.displacement_l1 = movable_l1(nl_, p, proj.anchors);
  }

  const double lambda_star = estimate_lambda_star(nl_);
  const double h_base =
      cfg_.schedule == ScheduleKind::SimplLinearRamp
          ? lambda_star / (3.0 * kLambdaRampSteps)
          : lambda_star / kLambdaRampSteps;
  LambdaSchedule schedule(cfg_.schedule, cfg_.h_factor);
  schedule.init(weighted_hpwl(nl_, p), proj.displacement_l1, h_base);
  if (warm) {
    // Jump λ to a fraction of its balance value so the incoming placement
    // is respected from the first iteration.
    while (schedule.lambda() < kWarmLambdaFraction * lambda_star)
      schedule.update(proj.displacement_l1, proj.displacement_l1);
  }

  auto make_stats = [&](int iter, double lambda, const ProjectionResult& pr,
                        size_t grid_bins) {
    IterationStats st;
    st.iteration = iter;
    st.lambda = lambda;
    st.phi_lower = weighted_hpwl(nl_, p);
    st.phi_upper = weighted_hpwl(nl_, pr.anchors);
    st.pi = pr.displacement_l1;
    st.lagrangian = st.phi_lower + lambda * st.pi;
    st.overflow_ratio = pr.input_overflow_ratio;
    st.gap = st.phi_upper > 0.0
                 ? (st.phi_upper - st.phi_lower) / st.phi_upper
                 : 0.0;
    st.grid_bins = grid_bins;
    st.elapsed_s = timer.seconds();
    return st;
  };

  // --- Watchdog / recovery state -----------------------------------------
  // All monitor checks are read-only: a healthy run executes bitwise the
  // same arithmetic with the watchdog on or off.
  const bool watchdog = cfg_.watchdog;
  HealthMonitor monitor(nl_);
  Checkpoint best;
  int consecutive_faults = 0;  // rollbacks since the last healthy iteration
  int restarted_from = -1;     // checkpoint the last recovery restarted from
  int breakdown_streak = 0;    // consecutive CG-breakdown faults
  int pending_recoveries = 0;  // recoveries to stamp on the next trace row

  result.trace.push_back(make_stats(0, schedule.lambda(), proj, lal.bins_x()));

  if (watchdog) {
    // A corrupted *initial* state is unrecoverable — no checkpoint exists
    // yet — so surface a structured failure instead of iterating on NaNs.
    HealthFault f0 = HealthFault::None;
    if (!HealthMonitor::placement_finite(nl_, p))
      f0 = HealthFault::NonFiniteIterate;
    else if (!HealthMonitor::placement_finite(nl_, proj.anchors))
      f0 = HealthFault::NonFiniteAnchors;
    else
      f0 = monitor.check_stats(result.trace.back());
    if (f0 != HealthFault::None) {
      monitor.stats().count(f0);
      result.failed = true;
      result.stop = StopReason::Diverged;
      result.failure = std::string("initial state: ") + to_string(f0);
      log_error("placement aborted: %s", result.failure.c_str());
      result.lower_bound = std::move(p);
      result.anchors = proj.anchors;
      result.final_lambda = schedule.lambda();
      result.final_overflow = result.trace.back().overflow_ratio;
      result.health = monitor.stats();
      result.runtime_s = timer.seconds();
      return result;
    }
  }
  monitor.accept(result.trace.back());
  if (watchdog)
    best.offer(nl_, p, proj.anchors, schedule.lambda(),
               proj.displacement_l1, 0, lal.bins_x(),
               result.trace.back().overflow_ratio,
               result.trace.back().phi_upper);

  Placement prev_iter = p;
  Placement prev_proj = proj.anchors;
  double prev_pi = proj.displacement_l1;

  StopReason stop = StopReason::MaxIterations;

  // Restores the loop state from the best-so-far checkpoint and backs off
  // λ (halving per consecutive retry); from the second consecutive CG
  // breakdown also relaxes the CG tolerance and regularizes the diagonal.
  // Returns false, with `stop` set, when the run must end instead: the
  // retry budget is spent (Diverged), or this recovery would restart from
  // the checkpoint the previous one restarted from — nothing healthy since
  // has ranked better, so it would only repeat it (RollbackCycle).
  auto rollback = [&](int iter, HealthFault fault) -> bool {
    monitor.stats().count(fault);
    if (best.valid() && consecutive_faults == 0 &&
        best.trace_index == restarted_from) {
      stop = StopReason::RollbackCycle;
      log_warn("iter %d: %s — a second recovery from iteration %d would "
               "repeat the first; stopping with that checkpoint",
               iter, to_string(fault), best.trace_index);
      return false;
    }
    if (!best.valid() || consecutive_faults >= kMaxRecoveryRetries) {
      result.failed = true;
      stop = StopReason::Diverged;
      result.failure = "iteration " + std::to_string(iter) + ": " +
                       to_string(fault) + ": recovery retries exhausted (" +
                       std::to_string(kMaxRecoveryRetries) + ")";
      log_error("placement diverged: %s", result.failure.c_str());
      return false;
    }
    if (consecutive_faults == 0) restarted_from = best.trace_index;
    ++consecutive_faults;
    ++result.recovered;
    ++pending_recoveries;
    if (fault == HealthFault::CgBreakdown) {
      ++breakdown_streak;
      if (breakdown_streak >= 2) {
        qp_opts.cg.rel_tolerance *= kRecoveryCgTolRelax;
        qp_opts.cg.diag_shift += kRecoveryDiagShift;
      }
    }
    // Copy, never move: a second consecutive rollback returns here again.
    p = best.iterate;
    proj.anchors = best.anchors;
    proj.displacement_l1 = best.pi;
    proj.input_overflow_ratio = best.overflow;
    prev_iter = p;
    prev_proj = proj.anchors;
    prev_pi = best.pi;
    double backed_off = best.lambda;
    for (int i = 0; i < consecutive_faults; ++i)
      backed_off *= kRecoveryLambdaBackoff;
    schedule.set_lambda(std::max(backed_off, 1e-12));
    log_warn("iter %d: %s — rolled back to iteration %d, lambda %.3g "
             "(retry %d/%d)",
             iter, to_string(fault), best.trace_index, schedule.lambda(),
             consecutive_faults, kMaxRecoveryRetries);
    return true;
  };

  // Warm plateau detector. Baseline = the resumed solution's projected
  // quality: an iteration must beat it (and then keep beating its own best)
  // by kResumePlateauTol to keep the run alive. Only resume() reads these,
  // so the other paths stay bitwise identical with the detector compiled in.
  double warm_best_phi = resume
                             ? result.trace.back().phi_upper
                             : std::numeric_limits<double>::infinity();
  int warm_stall = 0;

  // --- Primal-dual iterations --------------------------------------------
  int k = 1;
  for (; k <= cfg_.max_iterations; ++k) {
    // complx-lint: allow(P1): relaxed poll of the external cancel flag;
    // control flow only — no data the numeric kernels read is involved.
    if (cfg_.cancel && cfg_.cancel->load(std::memory_order_relaxed)) {
      stop = StopReason::Cancelled;
      break;
    }
    if (cfg_.time_limit_s > 0.0 && timer.seconds() >= cfg_.time_limit_s) {
      stop = StopReason::TimeLimit;
      break;
    }

    double lambda_k = schedule.lambda();
    if (faults_.corrupt_lambda) lambda_k = faults_.corrupt_lambda(k, lambda_k);
    if (watchdog && !std::isfinite(lambda_k)) {
      if (!rollback(k, HealthFault::NonFiniteLambda)) break;
      continue;
    }

    const AnchorSet anchors = make_anchors(p, proj.anchors, lambda_k);
    inject_breakdown =
        faults_.force_cg_breakdown && faults_.force_cg_breakdown(k);
    const bool solver_broke = primal_step(&anchors);
    inject_breakdown = false;
    if (faults_.corrupt_iterate) faults_.corrupt_iterate(k, p);

    if (watchdog) {
      HealthFault fault = HealthFault::None;
      if (solver_broke)
        fault = HealthFault::CgBreakdown;
      else if (!HealthMonitor::placement_finite(nl_, p))
        fault = HealthFault::NonFiniteIterate;
      if (fault != HealthFault::None) {
        if (!rollback(k, fault)) break;
        continue;
      }
    }

    bins = std::min(static_cast<double>(finest), bins * kGridRefineRate);
    lal.set_grid(static_cast<size_t>(bins), static_cast<size_t>(bins));

    // Routability (SimPLR/Ripple): periodically re-estimate congestion and
    // inflate crowded standard cells before projecting.
    if (cfg_.routability.enabled &&
        (k % std::max(1, cfg_.routability.period)) == 0) {
      CongestionMap congestion(nl_, cfg_.routability.rudy);
      congestion.build(p);
      lal.set_inflation(
          compute_inflation(nl_, p, congestion, cfg_.routability.inflation));
    }

    proj = lal.project(p);
    result.solver.add(proj.timers);
    if (post_projection_) {
      post_projection_(proj.anchors);
      proj.displacement_l1 = movable_l1(nl_, p, proj.anchors);
    }

    if (watchdog && !HealthMonitor::placement_finite(nl_, proj.anchors)) {
      if (!rollback(k, HealthFault::NonFiniteAnchors)) break;
      continue;
    }

    check_self_consistency(prev_iter, prev_proj, p, proj.anchors,
                           lal.bins_x() >= finest,
                           result.self_consistency);

    schedule.update(prev_pi, proj.displacement_l1);
    IterationStats st = make_stats(k, schedule.lambda(), proj, lal.bins_x());
    st.recoveries = pending_recoveries;

    if (watchdog) {
      const HealthFault fault = monitor.check_stats(st);
      if (fault != HealthFault::None) {
        if (!rollback(k, fault)) break;
        continue;
      }
    }

    result.trace.push_back(st);
    monitor.accept(st);
    pending_recoveries = 0;
    consecutive_faults = 0;
    breakdown_streak = 0;
    if (watchdog)
      best.offer(nl_, p, proj.anchors, st.lambda, st.pi, st.iteration,
                 st.grid_bins, st.overflow_ratio, st.phi_upper);
    log_debug("iter %3d lambda=%.5f phi=[%.4g, %.4g] pi=%.4g ovfl=%.3f", k,
              st.lambda, st.phi_lower, st.phi_upper, st.pi,
              st.overflow_ratio);

    prev_iter = p;
    prev_proj = proj.anchors;
    prev_pi = proj.displacement_l1;

    // Convergence (Section 4): the SimPL criterion accepts once the iterate
    // is nearly C-feasible; the refined ComPLx criterion additionally stops
    // on a small duality gap (detailed placement runs on the anchors, so
    // the gap bounds the cost difference).
    const bool grid_final = lal.bins_x() >= finest;
    const int min_iters = resume ? kResumeMinIterations : cfg_.min_iterations;
    if (k >= min_iters && grid_final) {
      if (st.overflow_ratio < kStopOverflow) {
        stop = StopReason::Converged;
        break;
      }
      if (cfg_.use_gap_criterion && st.gap < kStopGap &&
          st.overflow_ratio < 2.0 * kStopOverflow) {
        stop = StopReason::Converged;
        break;
      }
      // Warm plateau (resume() only): the run started at the stored
      // quality, so once Φ̄ stops improving on it there is nothing left in
      // the budget worth spending — exit and let the checkpoint fallback
      // below return the best state seen (resumed or better).
      if (resume) {
        if (st.phi_upper < warm_best_phi * (1.0 - kResumePlateauTol)) {
          warm_best_phi = st.phi_upper;
          warm_stall = 0;
        } else if (++warm_stall >= kResumePlateauWindow) {
          stop = StopReason::Plateau;
          log_debug("iter %d: warm plateau — phi_upper %.4g stalled for %d "
                    "iterations",
                    k, st.phi_upper, warm_stall);
          break;
        }
      }
    }
  }

  // Which placement to return: a clean converged exit returns the final
  // iterate untouched (the watchdog adds zero perturbation to healthy
  // runs). A fault stop (divergence, rollback cycle) leaves the loop with
  // the faulted state in hand, so it always returns the checkpoint. Every
  // other exit — iteration exhaustion, warm plateau, time limit,
  // cancellation — falls back to the best-so-far checkpoint when it ranks
  // strictly better by (overflow, Φ_upper), and any exit whose final state
  // is non-finite always does.
  const IterationStats& last = result.trace.back();
  bool use_checkpoint = false;
  if (best.valid()) {
    const bool final_finite =
        HealthMonitor::placement_finite(nl_, p) &&
        HealthMonitor::placement_finite(nl_, proj.anchors);
    if (!final_finite || stop == StopReason::Diverged ||
        stop == StopReason::RollbackCycle)
      use_checkpoint = true;
    else if (stop != StopReason::Converged &&
             Checkpoint::ranks_better(best.grid_bins, best.overflow,
                                      best.phi_upper, last.grid_bins,
                                      last.overflow_ratio, last.phi_upper))
      use_checkpoint = true;
  }
  if (use_checkpoint) {  // the loop is done — move the placements out
    result.lower_bound = std::move(best.iterate);
    result.anchors = std::move(best.anchors);
    result.final_lambda = best.lambda;
    result.final_overflow = best.overflow;
    result.best_iteration = best.trace_index;
  } else {
    result.lower_bound = std::move(p);
    result.anchors = std::move(proj.anchors);
    result.final_lambda = schedule.lambda();
    result.final_overflow = last.overflow_ratio;
    result.best_iteration = last.iteration;
  }
  // A cancel or time-limit stop breaks at the top of iteration k, before it
  // runs; every other exit leaves the loop inside or after iteration k.
  result.iterations =
      stop == StopReason::Cancelled || stop == StopReason::TimeLimit
          ? k - 1
          : std::min(k, cfg_.max_iterations);
  result.stop = stop;
  result.health = monitor.stats();
  result.runtime_s = timer.seconds();
  return result;
}

}  // namespace complx
