// ComPLx: the projected-subgradient primal-dual Lagrange global placer.
//
// Each iteration alternates
//   1. primal:   minimize L°(x,y,λ) = Φ(x,y) + λ·||(x,y)−(x°,y°)||₁ —
//                the L1 anchor term is linearized into pseudonets of weight
//                λ·m_i / (|x_i − x_i°| + ε), ε = 1.5 × row height, and the
//                whole thing is a sparse SPD solve per axis (B2B model) or a
//                nonlinear CG pass (log-sum-exp model);
//   2. project:  (x°,y°) = P_C(x,y), the approximate feasibility projection;
//   3. dual:     λ update per Formula 12.
//
// The per-cell multiplier m_i is 1 for standard cells, area-proportional for
// macros (Section 5), and is additionally scaled by the timing/power
// criticality vector γ when provided (Formula 13).
//
// SimPL is recovered as a configuration: ScheduleKind::SimplLinearRamp plus
// the overflow-only stopping rule (see ComplxConfig::simpl_mode()).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/health.h"
#include "core/lambda.h"
#include "core/trace.h"
#include "projection/lal.h"
#include "qp/solver.h"
#include "route/rudy.h"

namespace complx {

/// Routability mode (the SimPLR/Ripple special cases, Section 5): RUDY
/// congestion is estimated every `period` iterations and congested standard
/// cells are inflated inside the feasibility projection.
struct RoutabilityOptions {
  bool enabled = false;
  int period = 4;  ///< iterations between congestion updates
  RudyOptions rudy;
};

/// How the anchor (spreading) force depends on a cell's distance to its
/// projection — the "force modulation problem" of Section 3. ComPLx's
/// answer is distance normalization: w = λ/(d+ε) makes the force saturate
/// at ~2λ, so far-away cells are pulled no harder than near ones and the
/// single multiplier λ controls the cost/feasibility trade-off. The
/// alternatives reproduce what prior placers do and exist for the
/// bench_ablation_modulation experiment.
enum class AnchorModulation {
  DistanceNormalized,  ///< ComPLx: w = λ·m/(d+ε), force ≈ 2λ·m
  Fixed,               ///< naive spring: w = λ·m/ε, force ∝ d (unbounded)
  Thresholded,         ///< RQL-style: force ∝ d but clipped at a hand-set
                       ///< cap of `threshold_rows` row heights
};

struct ComplxConfig {
  // Interconnect model Φ.
  QpOptions qp;

  // Anchor force modulation (see AnchorModulation).
  AnchorModulation modulation = AnchorModulation::DistanceNormalized;
  double threshold_rows = 10.0;  ///< force cap distance for Thresholded

  // Dual schedule. Formula 12's scaling constant h is derived from the
  // force-balance estimate λ* (mean B2B force per movable cell — the value
  // λ converges to): h = h_factor · λ* / kLambdaRampSteps (placer.cpp), so
  // λ doubles while small and then climbs to λ* in a fixed number of
  // iterations REGARDLESS of instance size (Section S3's flat iteration
  // counts). The SimPL ramp uses a 3× smaller fixed step (its schedule is
  // the special case ComPLx improves on).
  ScheduleKind schedule = ScheduleKind::ComplxFormula12;
  double h_factor = 1.0;

  // Feasibility projection. gamma = 0 (the default here) means "inherit the
  // netlist's target density"; set explicitly to override.
  ProjectionOptions projection;

  // Kept only so existing callers that copy FleetRunOptions::density_backend
  // still compile: the projection is always look-ahead legalization, and
  // the constructor rejects any value other than "spread".
  std::string density_backend = "spread";

  ComplxConfig() { projection.gamma = 0.0; }
  /// Grid schedule: start at finest/coarsening_factor bins and refine
  /// geometrically (kGridRefineRate per iteration, placer.cpp) to the
  /// finest grid. 1 disables coarsening (the Table 1 "Finest Grid"
  /// configuration).
  double grid_coarsening = 8.0;

  // Convergence (Section 4): the overflow and duality-gap thresholds are
  // kStopOverflow / kStopGap in placer.cpp.
  int max_iterations = 120;
  bool use_gap_criterion = true;  ///< false = SimPL (overflow only)
  int min_iterations = 10;

  // Worker threads for the parallel kernels (SpMV/CG reductions, B2B
  // assembly, density binning, HPWL/RUDY). 0 = leave the process-wide
  // setting alone (default: hardware concurrency). All kernels use
  // deterministic fixed-chunk reductions, so any value produces bitwise
  // identical placements; 1 runs everything inline on the caller.
  size_t threads = 0;

  // Routability-driven placement (SimPLR/Ripple as ComPLx configurations).
  RoutabilityOptions routability;

  // Nonlinear instantiation (Section S1): replace the linearized-quadratic
  // primal step with log-sum-exp wirelength minimized by nonlinear CG. The
  // anchors/λ machinery is unchanged — the paper's model-agnosticism claim.
  bool use_lse = false;

  // Numerical-safety watchdog: NaN/Inf screening of every iterate and
  // projection, divergence detection from the trace, and the
  // rollback-and-backoff recovery policy (thresholds in core/health.h).
  // All checks are read-only on healthy runs — the determinism guarantee
  // is unaffected. false removes even the checks (ablation/debug only).
  bool watchdog = true;

  // Wall-clock budget in seconds (0 = unlimited). When exceeded, the loop
  // stops after the current iteration and the best-so-far checkpoint is
  // returned (stop reason TimeLimit).
  double time_limit_s = 0.0;

  /// Returns a configuration equivalent to the SimPL special case: fixed
  /// linear pseudo-net weight ramp (h_factor scales the 0.01 base step)
  /// and the overflow-only stopping rule.
  static ComplxConfig simpl_mode() {
    ComplxConfig c;
    c.schedule = ScheduleKind::SimplLinearRamp;
    c.use_gap_criterion = false;
    c.max_iterations = 160;
    return c;
  }
};

struct PlaceResult {
  /// The returned iterate (x, y). Normally the last one; after an abnormal
  /// stop (divergence, rollback cycle, time limit, cancellation) it is the
  /// best-so-far checkpoint, ranked by (grid resolution, overflow_ratio,
  /// then Φ_upper).
  Placement lower_bound;
  Placement anchors;  ///< matching projection (x°, y°) — hand to legalizer
  std::vector<IterationStats> trace;
  SelfConsistencyStats self_consistency;
  int iterations = 0;  ///< loop iterations run (k − 1 for a cancel or
                       ///< time-limit stop at the top of iteration k)
  double final_lambda = 0.0;
  double final_overflow = 0.0;
  double runtime_s = 0.0;

  // Health / recovery bookkeeping (see core/health.h).
  StopReason stop = StopReason::Converged;
  SolverStats solver;   ///< aggregated CG statistics (both axes, all solves)
  HealthStats health;   ///< watchdog fault counters
  int recovered = 0;    ///< rollback-and-backoff recoveries performed
  int best_iteration = -1;  ///< trace iteration the placements come from
  /// Why the run failed: set exactly when stop == Diverged (the placements
  /// are then the best-so-far checkpoint), empty otherwise.
  std::string failure;
};

/// True when `r`'s anchors are worth recording in an experience store:
/// converged and plateaued exits are the ideal, and iteration-capped runs
/// still carry their best-so-far checkpoint (on hard designs that never
/// meet the overflow criterion they are the only experience a rerun could
/// resume). Diverged, cancelled, timed-out and rollback-cycle runs are
/// never recorded.
bool recordable(const PlaceResult& r);

class ComplxPlacer {
 public:
  /// The placer reads netlist geometry and target density; it does not
  /// modify the netlist. Call netlist.apply(result.anchors) to commit.
  /// Throws std::invalid_argument when cfg.density_backend is not "spread".
  ComplxPlacer(const Netlist& nl, const ComplxConfig& cfg);

  /// Per-cell criticality multipliers for the penalty term (Formula 13).
  /// Sized num_cells; entries default to 1. Values > 1 pull timing-critical
  /// cells harder toward their feasible anchors.
  void set_cell_criticality(Vec criticality);

  /// Optional hook run on every projection result before it is used as the
  /// anchor set — the Table 1 "P_C += FastPlace-DP" configuration installs
  /// legalize+DP here; region/alignment experiments can also use it.
  void set_post_projection_hook(std::function<void(Placement&)> hook) {
    post_projection_ = std::move(hook);
  }

  /// Test-only fault hooks (corrupt iterate / corrupt λ / force CG
  /// breakdown) used to prove the recovery path end-to-end. Production
  /// callers never install these.
  void set_fault_injection(FaultInjection faults) {
    faults_ = std::move(faults);
  }

  /// Cold start: movable cells collapse to the core center, a λ=0 phase
  /// minimizes Φ alone, and the grid refines from coarse to finest.
  PlaceResult place();

  /// Warm start (incremental placement, cf. S6's stability observation and
  /// the physical-synthesis use case of [1]) from an explicit initial
  /// placement (the netlist's stored positions are not consulted or
  /// modified): no collapse-to-center, no λ=0 phase, and λ starts at
  /// kWarmLambdaFraction (placer.cpp) of its balance value so the placement
  /// stays close to the incoming one. Pass nl.snapshot() to start from the
  /// netlist's own positions. Throws std::invalid_argument on a size
  /// mismatch.
  PlaceResult place_from(const Placement& initial);

  /// Resumes from a stored converged placement, typically the one
  /// ExperienceStore::resume_point returned for this netlist. Everything
  /// place_from does, and in addition: the grid starts at the finest
  /// resolution (the stored solution is already spread — re-coarsening
  /// would destroy it), the iteration floor drops to kResumeMinIterations,
  /// and the run gets a plateau stop — once Φ̄ fails to improve by
  /// kResumePlateauTol for kResumePlateauWindow consecutive healthy
  /// iterations it exits with StopReason::Plateau and returns its
  /// best-so-far checkpoint, which is never worse than the stored solution.
  /// A repeat of a job that exhausted its iteration budget thus re-attains
  /// the stored quality in a handful of iterations instead of burning the
  /// whole budget again.
  PlaceResult resume(const Placement& stored);

  /// Force-balance estimate of the converged multiplier: at the optimum the
  /// pseudonet force per cell (≈ 2λ) matches the mean linearized B2B net
  /// force per cell (≈ Σ_e 2·w_e·(2P_e−3)/(P_e−1) / |movables|, since each
  /// of a net's 2P−3 springs exerts w_e/(P−1) on each endpoint).
  static double estimate_lambda_star(const Netlist& nl);

 private:
  AnchorSet make_anchors(const Placement& iterate, const Placement& proj,
                         double lambda) const;
  void check_self_consistency(const Placement& prev_iter,
                              const Placement& prev_proj,
                              const Placement& cur_iter,
                              const Placement& cur_proj, bool grid_final,
                              SelfConsistencyStats& stats) const;
  /// Cold when `initial` is null, warm otherwise; `resume` adds the
  /// resume() behaviour on top of the warm start.
  PlaceResult place_impl(const Placement* initial, bool resume);

  const Netlist& nl_;
  ComplxConfig cfg_;
  Vec criticality_;
  std::function<void(Placement&)> post_projection_;
  FaultInjection faults_;
};

}  // namespace complx
