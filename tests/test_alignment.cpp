#include <gtest/gtest.h>

#include "core/placer.h"
#include "helpers.h"
#include "projection/alignment.h"
#include "projection/lal.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

TEST(Alignment, SnapCollapsesToMean) {
  Netlist nl = complx::testing::mesh_netlist(3);
  Placement p = nl.snapshot();
  AlignmentGroup g;
  g.cells = {0, 1, 2};
  g.axis = Axis::Y;
  p.y[0] = 10;
  p.y[1] = 20;
  p.y[2] = 30;
  const size_t moved = snap_to_alignments(nl, {g}, p);
  EXPECT_EQ(moved, 2u);  // the middle one is already at the mean
  EXPECT_DOUBLE_EQ(p.y[0], 20.0);
  EXPECT_DOUBLE_EQ(p.y[1], 20.0);
  EXPECT_DOUBLE_EQ(p.y[2], 20.0);
  EXPECT_DOUBLE_EQ(alignment_error({g}, p), 0.0);
}

TEST(Alignment, XAxisGroups) {
  Netlist nl = complx::testing::mesh_netlist(3);
  Placement p = nl.snapshot();
  AlignmentGroup g;
  g.cells = {0, 3, 6};
  g.axis = Axis::X;
  p.x[0] = 5;
  p.x[3] = 7;
  p.x[6] = 9;
  snap_to_alignments(nl, {g}, p);
  EXPECT_DOUBLE_EQ(p.x[0], 7.0);
  EXPECT_DOUBLE_EQ(p.x[6], 7.0);
}

TEST(Alignment, FixedMemberPinsTheLine) {
  Netlist nl = complx::testing::mesh_netlist(3);  // cells 9..12 are pads
  Placement p = nl.snapshot();
  AlignmentGroup g;
  g.axis = Axis::Y;
  const CellId pad = nl.find_cell("pad0");
  g.cells = {0, 1, pad};
  const double pad_y = p.y[pad];
  p.y[0] = pad_y + 50;
  p.y[1] = pad_y - 30;
  snap_to_alignments(nl, {g}, p);
  EXPECT_DOUBLE_EQ(p.y[0], pad_y);
  EXPECT_DOUBLE_EQ(p.y[1], pad_y);
  EXPECT_DOUBLE_EQ(p.y[pad], pad_y);  // fixed cell never moves
}

TEST(Alignment, ErrorMeasuresSpread) {
  Netlist nl = complx::testing::mesh_netlist(3);
  Placement p = nl.snapshot();
  AlignmentGroup g;
  g.cells = {0, 1};
  g.axis = Axis::Y;
  p.y[0] = 0;
  p.y[1] = 12;
  EXPECT_DOUBLE_EQ(alignment_error({g}, p), 12.0);
}

TEST(Alignment, TrivialGroupsIgnored) {
  Netlist nl = complx::testing::mesh_netlist(3);
  Placement p = nl.snapshot();
  AlignmentGroup single;
  single.cells = {0};
  EXPECT_EQ(snap_to_alignments(nl, {single}, p), 0u);
}

TEST(Alignment, ProjectionEnforcesGroups) {
  Netlist nl = complx::testing::small_circuit(151, 800);
  ProjectionOptions opts;
  AlignmentGroup g;
  g.axis = Axis::Y;
  for (CellId id = 0; id < 6; ++id) g.cells.push_back(id);
  opts.alignments = {g};
  LookAheadLegalizer lal(nl, opts);

  Placement p = nl.snapshot();
  const Point c = nl.core().center();
  for (CellId id : nl.movable_cells()) {
    p.x[id] = c.x;
    p.y[id] = c.y;
  }
  const ProjectionResult res = lal.project(p);
  EXPECT_LT(alignment_error(opts.alignments, res.anchors), 1e-9);
}

TEST(Alignment, EndToEndThroughThePlacer) {
  Netlist nl = complx::testing::small_circuit(152, 1000);
  ComplxConfig cfg;
  cfg.max_iterations = 40;
  AlignmentGroup g;
  g.axis = Axis::Y;
  for (CellId id = 10; id < 18; ++id) g.cells.push_back(id);
  cfg.projection.alignments = {g};
  ComplxPlacer placer(nl, cfg);
  const PlaceResult res = placer.place();
  EXPECT_LT(alignment_error(cfg.projection.alignments, res.anchors), 1e-9);
  // Placement quality not destroyed by the constraint.
  EXPECT_LT(hpwl(nl, res.anchors), hpwl(nl, nl.snapshot()));
}

// ---------------------------------------------------------- warm start ----

TEST(WarmStart, StaysCloseToIncomingPlacement) {
  Netlist nl = complx::testing::small_circuit(153, 1200);
  ComplxConfig cold;
  cold.max_iterations = 50;
  const PlaceResult base = ComplxPlacer(nl, cold).place();
  nl.apply(base.anchors);

  // Warm re-place of the SAME design must barely move anything.
  ComplxConfig warm = cold;
  warm.max_iterations = 15;
  const PlaceResult re = ComplxPlacer(nl, warm).place_from(nl.snapshot());
  double disp = 0.0;
  for (CellId id : nl.movable_cells())
    disp += std::abs(re.anchors.x[id] - base.anchors.x[id]) +
            std::abs(re.anchors.y[id] - base.anchors.y[id]);
  const double avg = disp / static_cast<double>(nl.num_movable());
  EXPECT_LT(avg, 10.0 * nl.row_height());
  // And the quality stays comparable.
  EXPECT_LT(hpwl(nl, re.anchors), 1.25 * hpwl(nl, base.anchors));
}

}  // namespace
}  // namespace complx
