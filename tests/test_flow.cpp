// The shared finish step (core/flow.h): legalize -> detailed placement ->
// score, with its two skip rules (a failed legalization, a raised cancel
// flag, also inside a fleet design) and its equality with the hand-written
// sequence it replaced.
#include <gtest/gtest.h>

#include "core/flow.h"
#include "core/placer.h"
#include "gen/fleet.h"
#include "helpers.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

/// One 30-wide row holding 20 movable 2-wide cells: 40 units of cell width
/// for 30 units of row, so the legalizer must leave some cells unplaced.
Netlist overfull_row() {
  Netlist nl;
  Cell c;
  c.width = 2.0;
  c.height = 12.0;
  c.kind = CellKind::Movable;
  c.x = 15.0;
  c.y = 6.0;
  std::vector<CellId> ids;
  for (int i = 0; i < 20; ++i)
    ids.push_back(nl.add_cell(c, "c" + std::to_string(i)));
  for (size_t i = 0; i + 1 < ids.size(); ++i)
    nl.add_net("e" + std::to_string(i), 1.0,
               {{ids[i], 0, 0}, {ids[i + 1], 0, 0}});
  nl.set_core({0.0, 0.0, 30.0, 12.0});
  nl.finalize();
  return nl;
}

Placement global_placement(const Netlist& nl) {
  ComplxConfig cfg;
  cfg.max_iterations = 20;
  return ComplxPlacer(nl, cfg).place().anchors;
}

TEST(FinishPlacement, FailedLegalizationSkipsDetailedPlacement) {
  const Netlist nl = overfull_row();
  const FinishResult res = finish_placement(nl, nl.snapshot());
  EXPECT_GT(res.legal.failed, 0u);
  EXPECT_FALSE(res.dp.has_value());
  EXPECT_FALSE(res.is_legal);
  EXPECT_EQ(res.metric.hpwl, hpwl(nl, res.placement));
}

TEST(FinishPlacement, SkippedDetailedPlacementLeavesTheLegalPlacement) {
  const Netlist nl = complx::testing::small_circuit(31, 600);
  const Placement anchors = global_placement(nl);
  Placement legalized = anchors;
  TetrisLegalizer(nl).legalize(legalized);

  const auto expect_legalized_only = [&](const FinishResult& res) {
    EXPECT_EQ(res.legal.failed, 0u);
    EXPECT_FALSE(res.dp.has_value());
    EXPECT_TRUE(res.is_legal);
    complx::testing::expect_placements_bitwise_equal(res.placement,
                                                     legalized);
  };
  {
    const complx::testing::ScopedCancel cancel;  // complx_place after ^C
    expect_legalized_only(finish_placement(nl, anchors));
  }
  expect_legalized_only(finish_placement(nl, anchors, {.detailed = false}));
}

TEST(FinishPlacement, MatchesHandWrittenTetrisThenDetailedSequence) {
  const Netlist nl = complx::testing::small_circuit(32, 800);
  const Placement anchors = global_placement(nl);
  const FinishResult res = finish_placement(nl, anchors);
  ASSERT_TRUE(res.dp.has_value());
  EXPECT_TRUE(res.is_legal);

  Placement p = anchors;
  TetrisLegalizer(nl).legalize(p);
  const DetailedResult dp = DetailedPlacer(nl).refine(p);
  complx::testing::expect_placements_bitwise_equal(res.placement, p);
  EXPECT_EQ(complx::testing::bits(res.metric.hpwl),
            complx::testing::bits(hpwl(nl, res.placement)));
  EXPECT_EQ(complx::testing::bits(res.metric.hpwl),
            complx::testing::bits(hpwl(nl, p)));
  EXPECT_EQ(res.dp->passes, dp.passes);
  EXPECT_EQ(complx::testing::bits(res.dp->final_hpwl),
            complx::testing::bits(dp.final_hpwl));
}

TEST(FinishPlacement, FleetDesignSkipsDetailedPlacementUnderRaisedFlag) {
  // complx_fleet after ^C: the running design's global placement stops and
  // its finish step skips DP, exactly as complx_place's does.
  PekoParams params;
  params.num_cells = 256;
  params.seed = 41;
  const Netlist nl = generate_peko(params).netlist;
  FleetRunOptions opts;
  opts.record_timing = false;
  FleetRecord rec;
  Placement anchors;
  {
    const complx::testing::ScopedCancel cancel;
    rec = run_fleet_design(params, opts);
    anchors = ComplxPlacer(nl, {}).place().anchors;
  }
  EXPECT_EQ(rec.stop, StopReason::Cancelled);
  const FinishResult legal_only =
      finish_placement(nl, anchors, {.detailed = false});
  EXPECT_EQ(complx::testing::bits(rec.hpwl),
            complx::testing::bits(legal_only.metric.hpwl));
  // With the flag lowered, DP does move this placement.
  const FinishResult refined = finish_placement(nl, anchors);
  ASSERT_TRUE(refined.dp.has_value());
  EXPECT_LT(refined.metric.hpwl, legal_only.metric.hpwl);
}

}  // namespace
}  // namespace complx
