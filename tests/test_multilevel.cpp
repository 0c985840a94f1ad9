#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "helpers.h"
#include "legal/tetris.h"
#include "multilevel/auto.h"
#include "multilevel/mlplacer.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

// ------------------------------------------------------------ coarsening --

TEST(Coarsen, ReducesCellCount) {
  Netlist fine = complx::testing::small_circuit(401, 2000);
  const CoarseLevel level = coarsen(fine);
  EXPECT_LT(level.netlist.num_cells(), fine.num_cells());
  // Heavy-edge matching merges at most pairs: >= half the cells remain.
  EXPECT_GE(level.netlist.num_cells(), fine.num_cells() / 2);
  EXPECT_EQ(level.fine_to_coarse.size(), fine.num_cells());
}

TEST(Coarsen, PreservesFixedAndMacros) {
  Netlist fine = complx::testing::small_circuit(402, 1000, 3);
  const CoarseLevel level = coarsen(fine);
  size_t fine_fixed = 0, coarse_fixed = 0, fine_mac = 0, coarse_mac = 0;
  for (const Cell& c : fine.cells()) {
    if (!c.movable()) ++fine_fixed;
    if (c.is_macro()) ++fine_mac;
  }
  for (const Cell& c : level.netlist.cells()) {
    if (!c.movable()) ++coarse_fixed;
    if (c.is_macro()) ++coarse_mac;
  }
  EXPECT_EQ(fine_fixed, coarse_fixed);
  EXPECT_EQ(fine_mac, coarse_mac);
}

TEST(Coarsen, ConservesMovableArea) {
  Netlist fine = complx::testing::small_circuit(403, 1500);
  const CoarseLevel level = coarsen(fine);
  EXPECT_NEAR(level.netlist.movable_area(), fine.movable_area(),
              1e-6 * fine.movable_area());
}

TEST(Coarsen, MappingIsOntoValidIds) {
  Netlist fine = complx::testing::small_circuit(404, 800);
  const CoarseLevel level = coarsen(fine);
  for (CellId cc : level.fine_to_coarse)
    ASSERT_LT(cc, level.netlist.num_cells());
}

TEST(Coarsen, NetsNeverGainPins) {
  Netlist fine = complx::testing::small_circuit(405, 800);
  const CoarseLevel level = coarsen(fine);
  EXPECT_LE(level.netlist.num_nets(), fine.num_nets());
  EXPECT_LE(level.netlist.num_pins(), fine.num_pins());
}

TEST(Interpolate, FineCellsLandOnClusters) {
  Netlist fine = complx::testing::small_circuit(406, 600);
  const CoarseLevel level = coarsen(fine);
  Placement coarse_p = level.netlist.snapshot();
  const Placement fine_p = interpolate(fine, level.fine_to_coarse, coarse_p);
  for (CellId id : fine.movable_cells()) {
    const CellId cc = level.fine_to_coarse[id];
    EXPECT_DOUBLE_EQ(fine_p.x[id], coarse_p.x[cc]);
    EXPECT_DOUBLE_EQ(fine_p.y[id], coarse_p.y[cc]);
  }
}

// -------------------------------------------------------------- ML placer --

TEST(Multilevel, PlacesLegalizably) {
  Netlist nl = complx::testing::small_circuit(411, 4000);
  MultilevelConfig cfg;
  cfg.coarsest_cells = 1000;
  MultilevelPlacer placer(nl, cfg);
  const MultilevelResult res = placer.place();
  ASSERT_GE(res.levels.size(), 2u);
  EXPECT_LT(res.levels.back().cells, res.levels.front().cells);

  Placement p = res.place.anchors;
  const LegalizeResult legal = TetrisLegalizer(nl).legalize(p);
  EXPECT_EQ(legal.failed, 0u);
  EXPECT_TRUE(TetrisLegalizer::is_legal(nl, p));
}

TEST(Multilevel, QualityWithinReasonOfFlat) {
  Netlist nl = complx::testing::small_circuit(412, 4000);
  MultilevelConfig mcfg;
  mcfg.coarsest_cells = 1000;
  const MultilevelResult ml = MultilevelPlacer(nl, mcfg).place();

  ComplxConfig flat_cfg;
  const PlaceResult flat = ComplxPlacer(nl, flat_cfg).place();

  // Multilevel trades some quality for coarse-level speed; it must stay in
  // the same league.
  EXPECT_LT(hpwl(nl, ml.place.anchors), 1.35 * hpwl(nl, flat.anchors));
}

// Rows with iteration == 0 each start one level's run.
size_t levels_placed(const PlaceResult& r) {
  size_t n = 0;
  for (const IterationStats& st : r.trace) n += st.iteration == 0;
  return n;
}

TEST(Multilevel, ReportsEveryLevelInOnePlaceResult) {
  Netlist nl = complx::testing::small_circuit(417, 4000);
  MultilevelConfig cfg;
  cfg.coarsest_cells = 1000;
  const MultilevelResult res = MultilevelPlacer(nl, cfg).place();
  ASSERT_GE(res.levels.size(), 2u);
  EXPECT_GT(res.place.solver.solves, 0u);
  EXPECT_GT(res.place.iterations, 0);
  EXPECT_EQ(levels_placed(res.place), res.levels.size());
  for (size_t i = 1; i < res.place.trace.size(); ++i)
    EXPECT_LE(res.place.trace[i - 1].elapsed_s, res.place.trace[i].elapsed_s)
        << i;
  EXPECT_EQ(res.place.anchors.x.size(), nl.num_cells());
}

TEST(Multilevel, CancelStopsTheCycleWithFiniteFineAnchors) {
  Netlist nl = complx::testing::small_circuit(418, 4000);
  const std::atomic<bool> cancel{true};
  MultilevelConfig cfg;
  cfg.coarsest_cells = 1000;
  cfg.coarse.cancel = &cancel;
  const MultilevelResult res = MultilevelPlacer(nl, cfg).place();
  ASSERT_GE(res.levels.size(), 2u);
  EXPECT_EQ(res.place.stop, StopReason::Cancelled);
  EXPECT_EQ(levels_placed(res.place), 1u);  // finer levels not re-solved
  // Every carried level records the stop it inherited.
  for (const LevelOutcome& l : res.levels)
    EXPECT_EQ(l.stop, StopReason::Cancelled) << l.cells;
  ASSERT_EQ(res.place.anchors.x.size(), nl.num_cells());
  ASSERT_EQ(res.place.lower_bound.x.size(), nl.num_cells());
  for (CellId id : nl.movable_cells()) {
    EXPECT_TRUE(std::isfinite(res.place.anchors.x[id])) << id;
    EXPECT_TRUE(std::isfinite(res.place.anchors.y[id])) << id;
  }
}

TEST(Multilevel, LevelStopsShowACappedCoarsestLevel) {
  // A coarsest level cut off by its iteration cap must say so in
  // its LevelOutcome, whatever the finer levels (and so the V-cycle) stop on.
  Netlist nl = complx::testing::small_circuit(420, 4000);
  MultilevelConfig cfg;
  cfg.coarsest_cells = 1000;
  cfg.coarse.max_iterations = 3;
  cfg.coarse.min_iterations = 1;
  const MultilevelResult res = MultilevelPlacer(nl, cfg).place();
  ASSERT_GE(res.levels.size(), 2u);
  EXPECT_EQ(res.levels.back().stop, StopReason::MaxIterations);
  EXPECT_EQ(res.levels.front().stop, res.place.stop);
  EXPECT_EQ(levels_placed(res.place), res.levels.size());
}

TEST(Multilevel, SharedDeadlineStopsTheCycle) {
  Netlist nl = complx::testing::small_circuit(419, 4000);
  MultilevelConfig cfg;
  cfg.coarsest_cells = 1000;
  cfg.coarse.time_limit_s = 1e-9;
  const MultilevelResult res = MultilevelPlacer(nl, cfg).place();
  EXPECT_EQ(res.place.stop, StopReason::TimeLimit);
  EXPECT_EQ(res.place.anchors.x.size(), nl.num_cells());
}

TEST(Multilevel, SmallDesignSkipsCoarsening) {
  Netlist nl = complx::testing::small_circuit(413, 500);
  MultilevelConfig cfg;
  cfg.coarsest_cells = 2500;  // already below threshold
  const MultilevelResult res = MultilevelPlacer(nl, cfg).place();
  EXPECT_EQ(res.levels.size(), 1u);
  EXPECT_GT(hpwl(nl, res.place.anchors), 0.0);
}

TEST(PlaceAuto, SmallDesignTakesFlatPath) {
  Netlist nl = complx::testing::small_circuit(414, 500);
  ComplxConfig cfg;
  cfg.max_iterations = 15;
  AutoPlaceOptions opts;  // default threshold is far above 500 movables
  const MultilevelResult r = place_auto(nl, cfg, opts);
  EXPECT_TRUE(r.levels.empty());
  EXPECT_GT(r.place.iterations, 0);
  EXPECT_GT(hpwl(nl, r.place.anchors), 0.0);
}

TEST(PlaceAuto, FlatPathIsBitwiseThePlainPlacer) {
  Netlist nl = complx::testing::small_circuit(415, 400);
  ComplxConfig cfg;
  cfg.max_iterations = 12;
  const PlaceResult a = place_auto(nl, cfg, {}).place;
  const PlaceResult b = ComplxPlacer(nl, cfg).place();
  ASSERT_EQ(a.anchors.x.size(), b.anchors.x.size());
  for (size_t i = 0; i < a.anchors.x.size(); ++i) {
    EXPECT_EQ(a.anchors.x[i], b.anchors.x[i]) << i;
    EXPECT_EQ(a.anchors.y[i], b.anchors.y[i]) << i;
  }
}

TEST(PlaceAuto, ThresholdZeroForcesMultilevel) {
  Netlist nl = complx::testing::small_circuit(416, 3000);
  ComplxConfig cfg;
  cfg.max_iterations = 15;
  AutoPlaceOptions opts;
  opts.multilevel_threshold = 0;
  opts.multilevel.coarsest_cells = 800;
  const MultilevelResult r = place_auto(nl, cfg, opts);
  ASSERT_GE(r.levels.size(), 2u);
  EXPECT_GT(r.levels.front().cells, r.levels.back().cells);
  EXPECT_GT(hpwl(nl, r.place.anchors), 0.0);
}

}  // namespace
}  // namespace complx
