#include <gtest/gtest.h>

#include <atomic>

#include "core/placer.h"
#include "dp/detailed.h"
#include "helpers.h"
#include "legal/tetris.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

Placement place_and_legalize(const Netlist& nl, int iters = 35) {
  ComplxConfig cfg;
  cfg.max_iterations = iters;
  ComplxPlacer placer(nl, cfg);
  Placement p = placer.place().anchors;
  TetrisLegalizer(nl).legalize(p);
  return p;
}

struct DpCase {
  uint64_t seed;
  size_t cells;
  size_t macros;
};

class DetailedSweep : public ::testing::TestWithParam<DpCase> {};

TEST_P(DetailedSweep, NeverIncreasesHpwl) {
  const auto [seed, cells, macros] = GetParam();
  Netlist nl = complx::testing::small_circuit(seed, cells, macros);
  Placement p = place_and_legalize(nl);
  const double before = hpwl(nl, p);
  DetailedPlacer dp(nl);
  const DetailedResult res = dp.refine(p);
  EXPECT_LE(res.final_hpwl, before * (1 + 1e-9));
  EXPECT_NEAR(res.initial_hpwl, before, 1e-6 * before);
  EXPECT_NEAR(res.final_hpwl, hpwl(nl, p), 1e-6 * before);
}

TEST_P(DetailedSweep, PreservesLegality) {
  const auto [seed, cells, macros] = GetParam();
  Netlist nl = complx::testing::small_circuit(seed, cells, macros);
  Placement p = place_and_legalize(nl);
  ASSERT_TRUE(TetrisLegalizer::is_legal(nl, p));
  DetailedPlacer(nl).refine(p);
  EXPECT_TRUE(TetrisLegalizer::is_legal(nl, p));
}

INSTANTIATE_TEST_SUITE_P(Designs, DetailedSweep,
                         ::testing::Values(DpCase{101, 600, 0},
                                           DpCase{102, 1200, 0},
                                           DpCase{103, 800, 2}));

TEST(Detailed, ActuallyImprovesSloppyPlacement) {
  // Start from a legalized RANDOM placement: DP should find large gains.
  Netlist nl = complx::testing::small_circuit(104, 800);
  Placement p = nl.snapshot();  // generator scatter (random-ish)
  TetrisLegalizer(nl).legalize(p);
  const double before = hpwl(nl, p);
  DetailedPlacer dp(nl);
  const DetailedResult res = dp.refine(p);
  EXPECT_LT(res.final_hpwl, 0.95 * before);
}

TEST(Detailed, MovePassesCanBeDisabled) {
  Netlist nl = complx::testing::small_circuit(105, 500);
  Placement p = place_and_legalize(nl);
  DetailedOptions opts;
  opts.global_swap = false;
  opts.local_reorder = false;
  opts.row_shift = false;
  DetailedPlacer dp(nl, opts);
  const Placement before = p;
  const DetailedResult res = dp.refine(p);
  EXPECT_DOUBLE_EQ(res.initial_hpwl, res.final_hpwl);
  for (CellId id : nl.movable_cells()) {
    EXPECT_DOUBLE_EQ(p.x[id], before.x[id]);
    EXPECT_DOUBLE_EQ(p.y[id], before.y[id]);
  }
}

TEST(Detailed, EachPassClassHelpsAlone) {
  Netlist nl = complx::testing::small_circuit(106, 800);
  Placement base = nl.snapshot();
  TetrisLegalizer(nl).legalize(base);
  const double before = hpwl(nl, base);

  for (int which = 0; which < 3; ++which) {
    DetailedOptions opts;
    opts.global_swap = which == 0;
    opts.local_reorder = which == 1;
    opts.row_shift = which == 2;
    opts.max_passes = 2;
    Placement p = base;
    DetailedPlacer(nl, opts).refine(p);
    EXPECT_LE(hpwl(nl, p), before * (1 + 1e-9)) << "pass class " << which;
    EXPECT_TRUE(TetrisLegalizer::is_legal(nl, p)) << "pass class " << which;
  }
}

TEST(Detailed, RaisedCancelFlagLeavesPlacementUntouched) {
  // A flag raised before the call stops refine() at its first check: no
  // pass runs and not a coordinate moves.
  Netlist nl = complx::testing::small_circuit(107, 800);
  Placement p = nl.snapshot();
  TetrisLegalizer(nl).legalize(p);
  const Placement before = p;
  const std::atomic<bool> cancel{true};
  const DetailedResult res = DetailedPlacer(nl).refine(p, &cancel);
  EXPECT_EQ(res.passes, 0);
  EXPECT_TRUE(res.cancelled);
  EXPECT_EQ(res.final_hpwl, res.initial_hpwl);
  EXPECT_EQ(p.x, before.x);
  EXPECT_EQ(p.y, before.y);

  // A lowered flag changes nothing: the run matches one without a flag.
  const std::atomic<bool> idle{false};
  Placement q = before;
  Placement r = before;
  const DetailedResult with_flag = DetailedPlacer(nl).refine(q, &idle);
  const DetailedResult without = DetailedPlacer(nl).refine(r);
  EXPECT_FALSE(with_flag.cancelled);
  EXPECT_GT(with_flag.passes, 0);
  EXPECT_EQ(with_flag.passes, without.passes);
  EXPECT_EQ(q.x, r.x);
  EXPECT_EQ(q.y, r.y);
}

TEST(Detailed, RunsOnRowlessNetlistGracefully) {
  Netlist nl;
  Cell c;
  c.width = 2;
  c.height = 2;
  nl.add_cell(c, "c");
  nl.set_core({0, 0, 0, 0});  // empty core -> no synthesized rows
  nl.finalize();
  Placement p = nl.snapshot();
  const DetailedResult res = DetailedPlacer(nl).refine(p);
  EXPECT_DOUBLE_EQ(res.initial_hpwl, res.final_hpwl);
}

}  // namespace
}  // namespace complx
