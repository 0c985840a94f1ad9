#include <gtest/gtest.h>

#include "helpers.h"
#include "timing/sta.h"
#include "timing/weighting.h"

namespace complx {
namespace {

/// reg0 -> a -> b -> reg1 chain with unit cells at known positions. First
/// pin of each net is the driver.
struct ChainFixture {
  Netlist nl;
  CellId reg0, a, b, reg1;
  std::vector<char> regs;

  ChainFixture() {
    auto add = [&](const std::string& name, double x) {
      Cell c;
      c.width = 2;
      c.height = 2;
      c.x = x - 1;  // center at x
      c.y = 0;
      return nl.add_cell(c, name);
    };
    reg0 = add("reg0", 0);
    a = add("a", 10);
    b = add("b", 30);
    reg1 = add("reg1", 60);
    nl.add_net("n0", 1.0, {{reg0, 0, 0}, {a, 0, 0}});
    nl.add_net("n1", 1.0, {{a, 0, 0}, {b, 0, 0}});
    nl.add_net("n2", 1.0, {{b, 0, 0}, {reg1, 0, 0}});
    nl.set_core({-10, -10, 100, 100});
    nl.finalize();
    regs.assign(nl.num_cells(), 0);
    regs[reg0] = regs[reg1] = 1;
  }
};

TEST(Sta, ChainArrivalsAccumulate) {
  ChainFixture f;
  TimingOptions opts;
  opts.wire_delay_per_unit = 0.1;
  TimingGraph tg(f.nl, f.regs, opts);
  const TimingReport rep = tg.analyze(f.nl.snapshot());
  // Distances: reg0->a = 10, a->b = 20, b->reg1 = 30 (centers, y equal).
  // arrival(a) = 1 + 1.0 = 2; arrival(b) = 2 + 1 + 2 = 5;
  // data_arrival(reg1) = 5 + 1 + 3 = 9.
  EXPECT_NEAR(rep.arrival[f.a], 2.0, 1e-9);
  EXPECT_NEAR(rep.arrival[f.b], 5.0, 1e-9);
  EXPECT_NEAR(rep.period, 1.05 * 9.0, 1e-9);
  EXPECT_EQ(rep.worst_endpoint, f.reg1);
}

TEST(Sta, SlackTightensWithPeriod) {
  ChainFixture f;
  TimingOptions opts;
  opts.wire_delay_per_unit = 0.1;
  opts.period = 8.0;  // below the 9.0 critical arrival: violation
  TimingGraph tg(f.nl, f.regs, opts);
  const TimingReport rep = tg.analyze(f.nl.snapshot());
  EXPECT_LT(rep.worst_slack, 0.0);
  EXPECT_GT(rep.violations, 0u);
  opts.period = 20.0;
  const TimingReport ok = TimingGraph(f.nl, f.regs, opts).analyze(
      f.nl.snapshot());
  EXPECT_GT(ok.worst_slack, 0.0);
  EXPECT_EQ(ok.violations, 0u);
}

TEST(Sta, MovingCellsChangesDelay) {
  ChainFixture f;
  TimingOptions opts;
  opts.wire_delay_per_unit = 0.1;
  TimingGraph tg(f.nl, f.regs, opts);
  Placement p = f.nl.snapshot();
  const double before = tg.analyze(p).period;
  // On a collinear chain the Manhattan path length is already minimal;
  // moving b OFF the reg0—reg1 line adds detour wire and must hurt.
  p.y[f.b] = 20.0;
  const double after = tg.analyze(p).period;
  EXPECT_GT(after, before);
}

TEST(Sta, CriticalPathIsTheChain) {
  ChainFixture f;
  TimingOptions opts;
  opts.wire_delay_per_unit = 0.1;
  TimingGraph tg(f.nl, f.regs, opts);
  const Placement p = f.nl.snapshot();
  const TimingReport rep = tg.analyze(p);
  const std::vector<CellId> path = tg.critical_path(p, rep);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), f.reg0);
  EXPECT_EQ(path.back(), f.reg1);
  const std::vector<NetId> nets = tg.path_nets(path);
  EXPECT_EQ(nets.size(), 3u);
}

TEST(Sta, HandlesGeneratedCircuitWithoutCrashing) {
  Netlist nl = complx::testing::small_circuit(121, 800);
  const std::vector<char> regs = choose_registers(nl, 0.1, 5);
  TimingGraph tg(nl, regs, {});
  const TimingReport rep = tg.analyze(nl.snapshot());
  EXPECT_GT(rep.period, 0.0);
  EXPECT_EQ(rep.slack.size(), nl.num_cells());
  const auto path = tg.critical_path(nl.snapshot(), rep);
  EXPECT_GE(path.size(), 1u);
}

TEST(ChooseRegisters, FractionRoughlyHonored) {
  Netlist nl = complx::testing::small_circuit(122, 2000);
  const std::vector<char> regs = choose_registers(nl, 0.25, 7);
  size_t count = 0, movable = 0;
  for (CellId id : nl.movable_cells()) {
    if (nl.cell(id).is_macro()) continue;
    ++movable;
    if (regs[id]) ++count;
  }
  const double frac =
      static_cast<double>(count) / static_cast<double>(movable);
  EXPECT_NEAR(frac, 0.25, 0.05);
  // Fixed cells are always boundaries.
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    if (!nl.cell(id).movable()) {
      EXPECT_TRUE(regs[id]);
    }
  }
}

// ------------------------------------------------------------ weighting ----

TEST(Weighting, ScaleNetWeights) {
  ChainFixture f;
  scale_net_weights(f.nl, {0, 2}, 10.0);
  EXPECT_DOUBLE_EQ(f.nl.net(0).weight, 10.0);
  EXPECT_DOUBLE_EQ(f.nl.net(1).weight, 1.0);
  EXPECT_DOUBLE_EQ(f.nl.net(2).weight, 10.0);
}

TEST(Weighting, UpdateCriticalityMultipliesViolators) {
  ChainFixture f;
  TimingOptions opts;
  opts.wire_delay_per_unit = 0.1;
  opts.period = 5.0;  // tight: violations on the chain
  const TimingReport rep =
      TimingGraph(f.nl, f.regs, opts).analyze(f.nl.snapshot());
  Vec crit(f.nl.num_cells(), 1.0);
  const size_t n = update_criticality(crit, rep, 0.5);
  EXPECT_GT(n, 0u);
  bool any_raised = false;
  for (double c : crit) any_raised |= c > 1.4;
  EXPECT_TRUE(any_raised);
}

TEST(Weighting, CriticalityDecaysWhenMet) {
  ChainFixture f;
  TimingOptions opts;
  opts.wire_delay_per_unit = 0.1;
  opts.period = 100.0;  // loose: all slacks positive
  const TimingReport rep =
      TimingGraph(f.nl, f.regs, opts).analyze(f.nl.snapshot());
  Vec crit(f.nl.num_cells(), 2.0);
  update_criticality(crit, rep, 0.5);
  for (double c : crit) {
    EXPECT_LT(c, 2.0);
    EXPECT_GE(c, 1.0);
  }
}

TEST(Weighting, SyntheticActivityInRange) {
  Netlist nl = complx::testing::small_circuit(123, 1000);
  const Vec act = synthetic_activity(nl, 9, 0.2);
  size_t hot = 0;
  for (CellId id : nl.movable_cells()) {
    EXPECT_GE(act[id], 0.0);
    EXPECT_LE(act[id], 1.0);
    if (act[id] > 0.4) ++hot;
  }
  // Roughly the requested hot fraction.
  const double frac = static_cast<double>(hot) /
                      static_cast<double>(nl.num_movable());
  EXPECT_NEAR(frac, 0.2, 0.06);
  // Fixed cells stay cold.
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    if (!nl.cell(id).movable()) {
      EXPECT_DOUBLE_EQ(act[id], 0.0);
    }
  }
}

TEST(Weighting, ActivityWeightsFollowHottestPin) {
  ChainFixture f;
  Vec act(f.nl.num_cells(), 0.0);
  act[f.a] = 0.8;  // only cell a is hot
  activity_based_net_weights(f.nl, act, /*strength=*/2.0);
  EXPECT_DOUBLE_EQ(f.nl.net(0).weight, 1.0 + 2.0 * 0.8);  // reg0-a
  EXPECT_DOUBLE_EQ(f.nl.net(1).weight, 1.0 + 2.0 * 0.8);  // a-b
  EXPECT_DOUBLE_EQ(f.nl.net(2).weight, 1.0);               // b-reg1 cold
}

TEST(Weighting, CriticalityFromActivityOffsetsByOne) {
  const Vec crit = criticality_from_activity({0.0, 0.5, 1.0});
  EXPECT_DOUBLE_EQ(crit[0], 1.0);
  EXPECT_DOUBLE_EQ(crit[1], 1.5);
  EXPECT_DOUBLE_EQ(crit[2], 2.0);
}

TEST(Weighting, SlackBasedWeightsRaiseCriticalNets) {
  ChainFixture f;
  TimingOptions opts;
  opts.wire_delay_per_unit = 0.1;
  opts.period = 9.0;  // exactly critical
  const TimingReport rep =
      TimingGraph(f.nl, f.regs, opts).analyze(f.nl.snapshot());
  slack_based_net_weights(f.nl, rep, /*strength=*/3.0);
  // All three chain nets are on the critical path: weights above 1.
  for (NetId e = 0; e < f.nl.num_nets(); ++e)
    EXPECT_GT(f.nl.net(e).weight, 1.0) << e;
}

}  // namespace
}  // namespace complx
