// End-to-end flow tests: generate -> ComPLx global placement -> legalize ->
// detailed placement -> evaluate. These exercise the same pipeline the
// Table 1 / Table 2 benches run.
#include <gtest/gtest.h>

#include "baseline/fastplace_style.h"
#include "core/flow.h"
#include "core/placer.h"
#include "helpers.h"
#include "projection/regions.h"
#include "timing/sta.h"
#include "timing/weighting.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

struct FlowCase {
  uint64_t seed;
  size_t cells;
  size_t macros;
  double density;
};

class FullFlow : public ::testing::TestWithParam<FlowCase> {};

TEST_P(FullFlow, ProducesLegalResultBoundedByLowerBound) {
  const auto [seed, cells, macros, density] = GetParam();
  Netlist nl = complx::testing::small_circuit(seed, cells, macros, density);
  ComplxConfig cfg;
  cfg.max_iterations = 50;
  const PlaceResult gp = ComplxPlacer(nl, cfg).place();
  const FinishResult res = finish_placement(nl, gp.anchors);
  EXPECT_TRUE(res.is_legal);
  ASSERT_TRUE(res.dp.has_value());
  const double lower_bound_hpwl = hpwl(nl, gp.lower_bound);
  // Lower-bound placement under-estimates the final legal cost.
  EXPECT_GT(res.metric.hpwl, 0.8 * lower_bound_hpwl);
  // Detailed placement must not lose ground on the legalized placement.
  EXPECT_LE(res.metric.hpwl, res.dp->initial_hpwl * (1 + 1e-9));
  // The whole flow lands within a reasonable factor of the lower bound.
  EXPECT_LT(res.metric.hpwl, 3.0 * lower_bound_hpwl);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, FullFlow,
    ::testing::Values(FlowCase{201, 800, 0, 1.0},
                      FlowCase{202, 1500, 0, 1.0},
                      FlowCase{203, 1000, 2, 0.8},
                      FlowCase{204, 1200, 3, 0.5}));

TEST(Flow, ComplxBeatsOrMatchesBaselineOnHpwl) {
  // The paper's headline: ComPLx outperforms the FastPlace-style flow.
  Netlist nl = complx::testing::small_circuit(211, 2000);
  ComplxConfig cfg;
  cfg.max_iterations = 60;
  const FinishResult complx_res =
      finish_placement(nl, ComplxPlacer(nl, cfg).place().anchors);
  const FinishResult fp_res =
      finish_placement(nl, FastPlaceStylePlacer(nl).place().placement);

  EXPECT_LT(complx_res.metric.hpwl, 1.10 * fp_res.metric.hpwl);
  EXPECT_TRUE(complx_res.is_legal);
}

TEST(Flow, ScaledHpwlEvaluableOnDensityDesign) {
  Netlist nl = complx::testing::small_circuit(212, 1200, 2, 0.8);
  ComplxConfig cfg;
  cfg.max_iterations = 50;
  ComplxPlacer placer(nl, cfg);
  const DensityMetric m =
      finish_placement(nl, placer.place().anchors, {.detailed = false})
          .metric;
  EXPECT_GT(m.hpwl, 0.0);
  EXPECT_GE(m.scaled_hpwl, m.hpwl);
  // Density-targeted placement keeps the overflow penalty moderate.
  EXPECT_LT(m.overflow_percent, 60.0);
}

TEST(Flow, RegionConstraintSatisfiedEndToEnd) {
  // Section S5 flow: constrain a set of cells to a box; the final anchors
  // must satisfy it.
  GenParams prm;
  prm.num_cells = 800;
  prm.seed = 213;
  prm.utilization = 0.5;
  Netlist nl = [&] {
    // Rebuild with a region: generator does not create regions itself.
    Netlist raw = generate_circuit(prm);
    Netlist with;
    const RegionId r =
        with.add_region({"clk", {raw.core().xl + 10, raw.core().yl + 10,
                                 raw.core().xl + raw.core().width() / 3,
                                 raw.core().yl + raw.core().height() / 3}});
    for (CellId id = 0; id < raw.num_cells(); ++id) {
      Cell c = raw.cell(id);
      if (c.movable() && !c.is_macro() && id % 16 == 0) c.region = r;
      with.add_cell(c, raw.cell_name(id));
    }
    for (NetId e = 0; e < raw.num_nets(); ++e) {
      const Net& n = raw.net(e);
      std::vector<Pin> pins;
      for (uint32_t k = 0; k < n.num_pins; ++k)
        pins.push_back(raw.pin(n.first_pin + k));
      with.add_net(raw.net_name(e), n.weight, pins);
    }
    with.set_core(raw.core());
    with.set_target_density(raw.target_density());
    with.finalize();
    return with;
  }();

  ComplxConfig cfg;
  cfg.max_iterations = 50;
  ComplxPlacer placer(nl, cfg);
  const PlaceResult res = placer.place();
  EXPECT_TRUE(regions_satisfied(nl, res.anchors, 1e-6));
}

TEST(Flow, TimingWeightsShortenCriticalPath) {
  // Section S6 flow in miniature: measure a critical path, boost its nets,
  // re-place, and verify the path got shorter without HPWL blow-up.
  Netlist nl = complx::testing::small_circuit(214, 1000);
  ComplxConfig cfg;
  cfg.max_iterations = 40;

  const PlaceResult first = ComplxPlacer(nl, cfg).place();
  const std::vector<char> regs = choose_registers(nl, 0.1, 3);
  TimingGraph tg(nl, regs, {});
  const TimingReport rep = tg.analyze(first.anchors);
  const auto path = tg.critical_path(first.anchors, rep);
  const auto nets = tg.path_nets(path);
  ASSERT_FALSE(nets.empty());

  auto path_len = [&](const Placement& p) {
    double s = 0.0;
    for (NetId e : nets) s += net_hpwl(nl, p, e);
    return s;
  };
  const double before_len = path_len(first.anchors);
  const double before_hpwl = hpwl(nl, first.anchors);

  scale_net_weights(nl, nets, 20.0);
  const PlaceResult second = ComplxPlacer(nl, cfg).place();
  const double after_len = path_len(second.anchors);
  const double after_hpwl = hpwl(nl, second.anchors);

  EXPECT_LT(after_len, before_len);
  EXPECT_LT(after_hpwl, 1.15 * before_hpwl);  // overall HPWL ~unaffected
}

TEST(Flow, DeterministicEndToEnd) {
  Netlist nl = complx::testing::small_circuit(215, 800);
  ComplxConfig cfg;
  cfg.max_iterations = 30;
  auto run = [&] {
    return finish_placement(nl, ComplxPlacer(nl, cfg).place().anchors);
  };
  EXPECT_DOUBLE_EQ(run().metric.hpwl, run().metric.hpwl);
}

}  // namespace
}  // namespace complx
