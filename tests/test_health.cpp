// Numerical-safety watchdog: unit tests for the monitor/checkpoint pieces
// plus end-to-end fault-injection runs proving the placer never returns a
// non-finite placement and recovers to its best-so-far checkpoint.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "core/health.h"
#include "core/placer.h"
#include "gen/fleet.h"
#include "helpers.h"
#include "legal/tetris.h"
#include "util/log.h"

namespace complx {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// The largest Π of two in-core placements: the monitor's penalty reference.
double in_core_pi_bound(const Netlist& nl) {
  return static_cast<double>(nl.num_movable()) *
         (nl.core().width() + nl.core().height());
}

IterationStats healthy_stats() {
  IterationStats st;
  st.iteration = 1;
  st.lambda = 1.0;
  st.phi_lower = 100.0;
  st.phi_upper = 120.0;
  st.pi = 10.0;
  st.lagrangian = 110.0;
  st.overflow_ratio = 0.5;
  return st;
}

// ---------------------------------------------------------------------------
// HealthMonitor unit tests.

TEST(HealthMonitor, PlacementFiniteDetectsNanAndInf) {
  const Netlist nl = testing::two_cell_chain();
  Placement p = nl.snapshot();
  EXPECT_TRUE(HealthMonitor::placement_finite(nl, p));
  const CellId id = nl.movable_cells()[0];
  p.x[id] = kNan;
  EXPECT_FALSE(HealthMonitor::placement_finite(nl, p));
  p.x[id] = 0.0;
  p.y[id] = kInf;
  EXPECT_FALSE(HealthMonitor::placement_finite(nl, p));
}

TEST(HealthMonitor, FirstIterationIsNeverDivergent) {
  HealthMonitor monitor(testing::two_cell_chain());
  // No accepted references yet: even an enormous first point is healthy.
  IterationStats st = healthy_stats();
  st.phi_lower = 1e30;
  st.pi = 1e30;
  st.lagrangian = 1e30;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::None);
}

TEST(HealthMonitor, FlagsNonFiniteStatsAndLambda) {
  HealthMonitor monitor(testing::two_cell_chain());
  IterationStats st = healthy_stats();
  st.lambda = kNan;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::NonFiniteLambda);
  st = healthy_stats();
  st.pi = kInf;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::NonFiniteStats);
  st = healthy_stats();
  st.phi_lower = kNan;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::NonFiniteStats);
}

TEST(HealthMonitor, DetectsBlowupsAgainstAcceptedReferences) {
  const Netlist nl = testing::two_cell_chain();
  HealthMonitor monitor(nl);
  const double pi_bound = in_core_pi_bound(nl);
  // The reference is the last accepted Φ_upper (120), not its Φ_lower or L.
  monitor.accept(healthy_stats());
  const double phi_upper = healthy_stats().phi_upper;

  IterationStats st = healthy_stats();
  st.phi_lower = phi_upper * kPhiBlowupRatio * 1.01;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::ObjectiveBlowup);
  st.phi_lower = phi_upper * kPhiBlowupRatio * 0.99;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::None);

  st = healthy_stats();
  st.pi = pi_bound * kPiBlowupRatio * 1.01;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::PenaltyBlowup);
  st.pi = pi_bound * kPiBlowupRatio * 0.99;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::None);

  st = healthy_stats();
  st.lagrangian = phi_upper * kLagrangianBlowupRatio * 1.01;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::LagrangianBlowup);
  st.lagrangian = phi_upper * kLagrangianBlowupRatio * 0.99;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::None);

  // The reference follows the trajectory: a later accepted iteration with a
  // larger Φ_upper admits a proportionally larger Φ_lower and L, which the
  // smallest value seen so far (100 and 110) would have flagged.
  IterationStats spread = healthy_stats();
  spread.phi_upper = 1e4;
  monitor.accept(spread);
  st = healthy_stats();
  st.phi_lower = 1e4 * kPhiBlowupRatio * 0.99;
  st.lagrangian = 1e4 * kLagrangianBlowupRatio * 0.99;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::None);
  st.phi_lower = 1e4 * kPhiBlowupRatio * 1.01;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::ObjectiveBlowup);

  // Π's bound is geometric: no accepted history can shrink it, so a
  // resumed run whose healthy Π is tiny is not flagged for spreading.
  IterationStats resumed = healthy_stats();
  resumed.pi = 1e-9;
  monitor.accept(resumed);
  st = healthy_stats();
  st.pi = pi_bound * kPiBlowupRatio * 0.99;
  EXPECT_EQ(monitor.check_stats(st), HealthFault::None);
}

TEST(HealthStats, CountsPerKind) {
  HealthStats hs;
  hs.count(HealthFault::None);
  EXPECT_EQ(hs.faults, 0u);
  hs.count(HealthFault::CgBreakdown);
  hs.count(HealthFault::CgBreakdown);
  hs.count(HealthFault::NonFiniteLambda);
  EXPECT_EQ(hs.faults, 3u);
  EXPECT_EQ(hs.cg_breakdowns, 2u);
  EXPECT_EQ(hs.nonfinite_lambda, 1u);
}

TEST(SolverStats, AggregatesCgResults) {
  SolverStats s;
  CgResult ok;
  ok.converged = true;
  ok.iterations = 10;
  ok.residual_norm = 1e-8;
  CgResult broke;
  broke.breakdown = true;
  broke.iterations = 3;
  broke.residual_norm = 0.5;
  s.add(ok);
  s.add(broke);
  EXPECT_EQ(s.solves, 2u);
  EXPECT_EQ(s.nonconverged, 1u);
  EXPECT_EQ(s.breakdowns, 1u);
  EXPECT_EQ(s.total_cg_iterations, 13u);
  EXPECT_DOUBLE_EQ(s.worst_residual, 0.5);
}

// ---------------------------------------------------------------------------
// Checkpoint unit tests.

TEST(Checkpoint, RanksGridThenOverflowThenPhiUpper) {
  // Same grid: overflow first, Φ_upper second.
  EXPECT_TRUE(Checkpoint::ranks_better(64, 0.1, 500.0, 64, 0.2, 100.0));
  EXPECT_FALSE(Checkpoint::ranks_better(64, 0.2, 100.0, 64, 0.1, 500.0));
  EXPECT_TRUE(Checkpoint::ranks_better(64, 0.1, 100.0, 64, 0.1, 200.0));
  EXPECT_FALSE(Checkpoint::ranks_better(64, 0.1, 100.0, 64, 0.1, 100.0));
  // Overflow is only comparable at equal resolution: a finer grid always
  // supersedes a coarser one, even with nominally higher overflow.
  EXPECT_TRUE(Checkpoint::ranks_better(64, 0.8, 500.0, 4, 0.1, 100.0));
  EXPECT_FALSE(Checkpoint::ranks_better(4, 0.1, 100.0, 64, 0.8, 500.0));
}

TEST(Checkpoint, OfferKeepsBestAndRefreshesTies) {
  const Netlist nl = testing::two_cell_chain();
  const Placement p = nl.snapshot();
  Checkpoint cp;
  EXPECT_FALSE(cp.valid());
  EXPECT_TRUE(cp.offer(nl, p, p, 1.0, 5.0, 1, 64, 0.4, 200.0));
  EXPECT_TRUE(cp.valid());
  EXPECT_EQ(cp.trace_index, 1);
  // Strictly worse: rejected.
  EXPECT_FALSE(cp.offer(nl, p, p, 1.0, 5.0, 2, 64, 0.5, 100.0));
  EXPECT_EQ(cp.trace_index, 1);
  // Tie on all keys: refreshed (tracks the most recent equally-good state).
  EXPECT_TRUE(cp.offer(nl, p, p, 2.0, 6.0, 3, 64, 0.4, 200.0));
  EXPECT_EQ(cp.trace_index, 3);
  EXPECT_DOUBLE_EQ(cp.lambda, 2.0);
  // Strictly better: taken.
  EXPECT_TRUE(cp.offer(nl, p, p, 3.0, 4.0, 4, 64, 0.3, 300.0));
  EXPECT_EQ(cp.trace_index, 4);
  // A finer-grid snapshot supersedes regardless of its overflow value.
  EXPECT_TRUE(cp.offer(nl, p, p, 3.0, 4.0, 5, 83, 0.9, 900.0));
  EXPECT_EQ(cp.trace_index, 5);
  // ...and a stale coarse-grid one can no longer displace it.
  EXPECT_FALSE(cp.offer(nl, p, p, 3.0, 4.0, 6, 64, 0.0, 1.0));
  EXPECT_EQ(cp.trace_index, 5);
}

TEST(Checkpoint, RejectsNonFiniteState) {
  const Netlist nl = testing::two_cell_chain();
  Placement p = nl.snapshot();
  Checkpoint cp;
  EXPECT_FALSE(cp.offer(nl, p, p, kNan, 5.0, 1, 64, 0.4, 200.0));
  EXPECT_FALSE(cp.offer(nl, p, p, 1.0, 5.0, 1, 64, kInf, 200.0));
  Placement bad = p;
  bad.x[nl.movable_cells()[0]] = kNan;
  EXPECT_FALSE(cp.offer(nl, bad, p, 1.0, 5.0, 1, 64, 0.4, 200.0));
  EXPECT_FALSE(cp.offer(nl, p, bad, 1.0, 5.0, 1, 64, 0.4, 200.0));
  EXPECT_FALSE(cp.valid());
}

// ---------------------------------------------------------------------------
// End-to-end fault injection through the placer.

class HealthPlacer : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_level(LogLevel::Error);
    nl_ = testing::small_circuit(7, 500);
    cfg_.max_iterations = 40;
  }
  void TearDown() override { set_log_level(LogLevel::Info); }

  // The contract on every exit path: finite coordinates, and the anchors
  // must survive legalization (the "legalizable best-so-far" guarantee).
  void expect_usable(const PlaceResult& r) {
    EXPECT_TRUE(HealthMonitor::placement_finite(nl_, r.lower_bound));
    EXPECT_TRUE(HealthMonitor::placement_finite(nl_, r.anchors));
    Placement legal = r.anchors;
    EXPECT_EQ(TetrisLegalizer(nl_).legalize(legal).failed, 0u);
  }

  Netlist nl_;
  ComplxConfig cfg_;
};

TEST_F(HealthPlacer, RecoversFromInjectedNanIterate) {
  ComplxPlacer placer(nl_, cfg_);
  FaultInjection faults;
  faults.corrupt_iterate = [&](int iteration, Placement& p) {
    if (iteration == 5) p.x[nl_.movable_cells()[0]] = kNan;
  };
  placer.set_fault_injection(faults);
  const PlaceResult r = placer.place();
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.recovered, 1);
  EXPECT_EQ(r.health.nonfinite_iterate, 1u);
  EXPECT_EQ(r.trace.back().recoveries, 0);  // a later healthy row
  expect_usable(r);
}

// Two faulted iterations in a row roll back twice to the same checkpoint,
// so the first rollback must leave the checkpoint intact for the second.
TEST_F(HealthPlacer, ConsecutiveFaultsRollBackTwiceToOneCheckpoint) {
  ComplxPlacer placer(nl_, cfg_);
  FaultInjection faults;
  faults.corrupt_iterate = [&](int iteration, Placement& p) {
    if (iteration == 5 || iteration == 6) p.x[nl_.movable_cells()[0]] = kNan;
  };
  placer.set_fault_injection(faults);
  const PlaceResult r = placer.place();
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.recovered, 2);
  EXPECT_EQ(r.health.nonfinite_iterate, 2u);
  expect_usable(r);
}

TEST_F(HealthPlacer, RecoversFromForcedCgBreakdown) {
  ComplxPlacer placer(nl_, cfg_);
  FaultInjection faults;
  // Two consecutive breakdowns also exercise the CG relaxation path
  // (tolerance × 10, Tikhonov diagonal shift) on the second retry.
  faults.force_cg_breakdown = [](int iteration) {
    return iteration == 4 || iteration == 5;
  };
  placer.set_fault_injection(faults);
  const PlaceResult r = placer.place();
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.recovered, 2);
  EXPECT_EQ(r.health.cg_breakdowns, 2u);
  EXPECT_GE(r.solver.breakdowns, 2u);  // both axes of each faulted solve
  expect_usable(r);
}

TEST_F(HealthPlacer, RecoversFromLambdaOverflow) {
  ComplxPlacer placer(nl_, cfg_);
  FaultInjection faults;
  faults.corrupt_lambda = [](int iteration, double lambda) {
    return iteration == 3 ? kInf : lambda;
  };
  placer.set_fault_injection(faults);
  const PlaceResult r = placer.place();
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.recovered, 1);
  EXPECT_EQ(r.health.nonfinite_lambda, 1u);
  expect_usable(r);
}

TEST_F(HealthPlacer, PersistentFaultExhaustsRetriesButReturnsBestSoFar) {
  ComplxPlacer placer(nl_, cfg_);
  FaultInjection faults;
  faults.corrupt_iterate = [&](int iteration, Placement& p) {
    if (iteration >= 3) p.x[nl_.movable_cells()[0]] = kNan;
  };
  placer.set_fault_injection(faults);
  const PlaceResult r = placer.place();
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.stop, StopReason::Diverged);
  EXPECT_EQ(r.recovered, kMaxRecoveryRetries);
  EXPECT_FALSE(r.failure.empty());
  EXPECT_GE(r.best_iteration, 0);
  // Despite every post-2 iterate being poisoned, the result is usable.
  expect_usable(r);
}

// An anchor set pushed far outside the core makes Π exceed the in-core
// bound on any run, resumed or not: detected, counted, rolled back.
TEST_F(HealthPlacer, RecoversFromInjectedPenaltyBlowup) {
  ComplxPlacer placer(nl_, cfg_);
  const double shift = 2.0 * kPiBlowupRatio * in_core_pi_bound(nl_);
  int projections = 0;
  placer.set_post_projection_hook([&](Placement& anchors) {
    if (++projections == 6)  // iteration 5 (the 1st call is iteration 0)
      anchors.x[nl_.movable_cells()[0]] += shift;
  });
  const PlaceResult r = placer.place();
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.recovered, 1);
  EXPECT_EQ(r.health.penalty_blowups, 1u);
  EXPECT_EQ(r.health.faults, 1u);
  expect_usable(r);
}

// A recovery that would restart from the checkpoint an earlier recovery
// already restarted from ends the run: without that stop a fault every few
// iterations rolls back to one checkpoint until max_iterations.
TEST_F(HealthPlacer, RepeatedRecoveryFromOneCheckpointStopsTheRun) {
  cfg_.grid_coarsening = 1.0;  // finest grid from the start: rows rank by
                               // overflow, not by resolution
  cfg_.max_iterations = 60;
  ComplxPlacer placer(nl_, cfg_);
  constexpr int kFirstFault = 5;
  FaultInjection faults;
  faults.corrupt_iterate = [&](int iteration, Placement& p) {
    if (iteration < kFirstFault) return;
    if ((iteration - kFirstFault) % 3 == 0) {
      p.x[nl_.movable_cells()[0]] = kNan;
      return;
    }
    // Between the faults: a finite, healthy-looking iterate squeezed toward
    // the core center, whose higher overflow never outranks the checkpoint.
    const Point c = nl_.core().center();
    for (CellId id : nl_.movable_cells()) {
      p.x[id] = c.x + 0.5 * (p.x[id] - c.x);
      p.y[id] = c.y + 0.5 * (p.y[id] - c.y);
    }
  };
  placer.set_fault_injection(faults);
  const PlaceResult r = placer.place();

  EXPECT_EQ(r.stop, StopReason::RollbackCycle);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.recovered, 1);  // the first recovery; the second one stops
  EXPECT_EQ(r.health.nonfinite_iterate, 2u);
  EXPECT_EQ(r.iterations, kFirstFault + 3);
  // The returned placement is the checkpoint: the best-ranked row accepted
  // before the first fault (ties go to the later row).
  const IterationStats* expected = nullptr;
  for (const IterationStats& st : r.trace)
    if (st.iteration < kFirstFault &&
        (!expected ||
         !Checkpoint::ranks_better(expected->grid_bins,
                                   expected->overflow_ratio,
                                   expected->phi_upper, st.grid_bins,
                                   st.overflow_ratio, st.phi_upper)))
      expected = &st;
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(r.best_iteration, expected->iteration);
  EXPECT_EQ(r.final_overflow, expected->overflow_ratio);
  expect_usable(r);
}

TEST_F(HealthPlacer, TimeLimitStopsEarlyWithUsablePlacement) {
  cfg_.time_limit_s = 1e-6;  // expires before the first loop iteration
  ComplxPlacer placer(nl_, cfg_);
  const PlaceResult r = placer.place();
  EXPECT_EQ(r.stop, StopReason::TimeLimit);
  EXPECT_FALSE(r.failed);
  // The stop comes at the top of iteration 1, which never runs.
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.trace.size(), 1u);
  expect_usable(r);
}

TEST_F(HealthPlacer, CancelFlagStopsWithUsablePlacement) {
  std::atomic<bool> cancel{true};
  cfg_.cancel = &cancel;
  ComplxPlacer placer(nl_, cfg_);
  const PlaceResult r = placer.place();
  EXPECT_EQ(r.stop, StopReason::Cancelled);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.trace.size(), 1u);
  expect_usable(r);
}

TEST_F(HealthPlacer, HealthyRunConvergesWithZeroFaults) {
  ComplxPlacer placer(nl_, cfg_);
  const PlaceResult r = placer.place();
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.recovered, 0);
  EXPECT_EQ(r.health.faults, 0u);
  EXPECT_GT(r.solver.solves, 0u);
  EXPECT_GT(r.solver.total_cg_iterations, 0u);
  expect_usable(r);
}

// The acceptance criterion for the whole subsystem: on a healthy run the
// watchdog performs read-only checks only, so enabling it changes nothing —
// bitwise. (This test carries the `determinism` ctest label.)
TEST_F(HealthPlacer, WatchdogAddsZeroPerturbationToHealthyRuns) {
  // Let the run converge: a MaxIterations exit is allowed to prefer the
  // best-so-far checkpoint, which would make this comparison ill-posed.
  cfg_.max_iterations = 120;
  ComplxConfig off = cfg_;
  off.watchdog = false;
  const PlaceResult with = ComplxPlacer(nl_, cfg_).place();
  const PlaceResult without = ComplxPlacer(nl_, off).place();
  ASSERT_EQ(with.stop, StopReason::Converged);
  ASSERT_EQ(without.stop, StopReason::Converged);
  ASSERT_EQ(with.trace.size(), without.trace.size());
  for (size_t i = 0; i < with.trace.size(); ++i) {
    EXPECT_EQ(with.trace[i].lambda, without.trace[i].lambda) << i;
    EXPECT_EQ(with.trace[i].phi_lower, without.trace[i].phi_lower) << i;
    EXPECT_EQ(with.trace[i].pi, without.trace[i].pi) << i;
  }
  testing::expect_placements_bitwise_equal(with.lower_bound,
                                           without.lower_bound);
  testing::expect_placements_bitwise_equal(with.anchors, without.anchors);
}

// A certified PEKO design from the smoke fleet. Its λ = 0 collapse has a
// tiny Φ and L, so healthy spreading iterations used to exceed 50× / 100×
// those running minima and roll back until the iteration cap; against the
// last accepted Φ_upper the same run converges untouched.
TEST(HealthPeko, SpreadingSmokeDesignConvergesWithoutRollbacks) {
  set_log_level(LogLevel::Error);
  const std::vector<PekoParams> designs = fleet_designs(FleetPreset::Smoke);
  const PekoParams* params = nullptr;
  for (const PekoParams& d : designs)
    if (d.name.rfind("peko_c1024_", 0) == 0) {
      params = &d;
      break;
    }
  ASSERT_NE(params, nullptr);
  const PekoDesign design = generate_peko(*params);
  ComplxConfig cfg;
  cfg.max_iterations = FleetRunOptions{}.max_iterations;
  const PlaceResult r = ComplxPlacer(design.netlist, cfg).place();
  set_log_level(LogLevel::Info);
  EXPECT_EQ(r.recovered, 0);
  EXPECT_EQ(r.health.faults, 0u);
  EXPECT_EQ(r.stop, StopReason::Converged);
  EXPECT_LT(r.iterations, cfg.max_iterations);
}

}  // namespace
}  // namespace complx
