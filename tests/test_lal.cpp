#include <gtest/gtest.h>

#include <algorithm>

#include "density/grid.h"
#include "helpers.h"
#include "projection/lal.h"

namespace complx {
namespace {

double overflow_ratio(const Netlist& nl, const Placement& p, size_t bins,
                      double gamma) {
  DensityGrid g(nl, bins, bins);
  g.build(p);
  return g.total_overflow(gamma) / nl.movable_area();
}

/// Pile all movable cells at the core center.
Placement piled(const Netlist& nl) {
  Placement p = nl.snapshot();
  const Point c = nl.core().center();
  for (CellId id : nl.movable_cells()) {
    p.x[id] = c.x;
    p.y[id] = c.y;
  }
  return p;
}

TEST(Lal, ProjectionReducesOverflowDrastically) {
  Netlist nl = complx::testing::small_circuit(61, 1500);
  const Placement p = piled(nl);
  ProjectionOptions opts;
  opts.gamma = 1.0;
  LookAheadLegalizer lal(nl, opts);
  const ProjectionResult res = lal.project(p);
  const double before = overflow_ratio(nl, p, lal.bins_x(), 1.0);
  const double after = overflow_ratio(nl, res.anchors, lal.bins_x(), 1.0);
  EXPECT_GT(before, 0.5);
  EXPECT_LT(after, 0.5 * before);  // one pass; the loop iterates P_C
  EXPECT_GT(res.displacement_l1, 0.0);
  EXPECT_GT(res.num_regions, 0u);
}

TEST(Lal, FeasibleInputReturnsItself) {
  // Generator scatter at low utilization is (near-)feasible on a coarse
  // grid: P_C must not move anything.
  GenParams prm;
  prm.num_cells = 400;
  prm.utilization = 0.3;
  prm.seed = 62;
  Netlist nl = generate_circuit(prm);
  const Placement p = nl.snapshot();
  ProjectionOptions opts;
  opts.gamma = 1.0;
  opts.bins_x = opts.bins_y = 4;  // coarse: surely feasible
  LookAheadLegalizer lal(nl, opts);
  const ProjectionResult res = lal.project(p);
  EXPECT_EQ(res.num_regions, 0u);
  EXPECT_DOUBLE_EQ(res.displacement_l1, 0.0);
  for (CellId id : nl.movable_cells()) {
    EXPECT_DOUBLE_EQ(res.anchors.x[id], p.x[id]);
    EXPECT_DOUBLE_EQ(res.anchors.y[id], p.y[id]);
  }
}

TEST(Lal, PiMatchesManualL1Distance) {
  Netlist nl = complx::testing::small_circuit(63, 800);
  const Placement p = piled(nl);
  LookAheadLegalizer lal(nl, {});
  const ProjectionResult res = lal.project(p);
  double manual = 0.0;
  for (CellId id : nl.movable_cells())
    manual += std::abs(p.x[id] - res.anchors.x[id]) +
              std::abs(p.y[id] - res.anchors.y[id]);
  EXPECT_NEAR(res.displacement_l1, manual, 1e-6 * manual);
}

TEST(Lal, InputOverflowRatioReported) {
  Netlist nl = complx::testing::small_circuit(64, 800);
  const Placement p = piled(nl);
  LookAheadLegalizer lal(nl, {});
  const ProjectionResult res = lal.project(p);
  EXPECT_NEAR(res.input_overflow_ratio,
              overflow_ratio(nl, p, lal.bins_x(), 1.0), 0.05);
}

TEST(Lal, AnchorsStayInCore) {
  Netlist nl = complx::testing::small_circuit(65, 1000, 2);
  const Placement p = piled(nl);
  LookAheadLegalizer lal(nl, {});
  const ProjectionResult res = lal.project(p);
  for (CellId id : nl.movable_cells()) {
    const Cell& c = nl.cell(id);
    EXPECT_GE(res.anchors.x[id] - c.width / 2.0, nl.core().xl - 1e-6);
    EXPECT_LE(res.anchors.x[id] + c.width / 2.0, nl.core().xh + 1e-6);
    EXPECT_GE(res.anchors.y[id] - c.height / 2.0, nl.core().yl - 1e-6);
    EXPECT_LE(res.anchors.y[id] + c.height / 2.0, nl.core().yh + 1e-6);
  }
}

TEST(Lal, MacroMovesWithItsShreds) {
  Netlist nl = complx::testing::small_circuit(66, 1000, 3);
  const Placement p = piled(nl);
  LookAheadLegalizer lal(nl, {});
  const ProjectionResult res = lal.project(p, /*export_shreds=*/true);
  EXPECT_FALSE(res.shreds.empty());
  EXPECT_EQ(res.shreds.size(), res.shred_origins.size());
  // At least one macro should have moved away from the pile center.
  bool macro_moved = false;
  for (CellId id : nl.movable_cells()) {
    if (!nl.cell(id).is_macro()) continue;
    if (std::abs(res.anchors.x[id] - p.x[id]) +
            std::abs(res.anchors.y[id] - p.y[id]) >
        nl.row_height())
      macro_moved = true;
  }
  EXPECT_TRUE(macro_moved);
}

TEST(Lal, TargetDensityControlsSpreading) {
  // Lower gamma must spread cells over a wider footprint.
  Netlist nl = complx::testing::small_circuit(67, 1200);
  const Placement p = piled(nl);
  auto footprint = [&](double gamma) {
    ProjectionOptions opts;
    opts.gamma = gamma;
    LookAheadLegalizer lal(nl, opts);
    const ProjectionResult res = lal.project(p);
    double xl = 1e18, xh = -1e18, yl = 1e18, yh = -1e18;
    for (CellId id : nl.movable_cells()) {
      xl = std::min(xl, res.anchors.x[id]);
      xh = std::max(xh, res.anchors.x[id]);
      yl = std::min(yl, res.anchors.y[id]);
      yh = std::max(yh, res.anchors.y[id]);
    }
    return (xh - xl) * (yh - yl);
  };
  EXPECT_GT(footprint(0.5), 1.2 * footprint(1.0));
}

TEST(Lal, GridRefinementMonotonicity) {
  // The same input projected on a finer grid cannot report less input
  // overflow (finer grids expose concentration).
  Netlist nl = complx::testing::small_circuit(68, 800);
  const Placement p = piled(nl);
  ProjectionOptions opts;
  opts.bins_x = opts.bins_y = 8;
  LookAheadLegalizer lal(nl, opts);
  const double coarse = lal.project(p).input_overflow_ratio;
  lal.set_grid(64, 64);
  const double fine = lal.project(p).input_overflow_ratio;
  EXPECT_GE(fine + 1e-9, coarse);
}

TEST(Lal, AutoBinsScalesWithDesign) {
  Netlist small = complx::testing::small_circuit(69, 400);
  Netlist big = complx::testing::small_circuit(70, 6000);
  EXPECT_GE(LookAheadLegalizer::auto_bins(big),
            LookAheadLegalizer::auto_bins(small));
}

TEST(Lal, AssignMotesFirstRegionWins) {
  // Two regions sharing the edge x=50 plus one detached region. Motes that
  // sit exactly on the shared edge satisfy Rect::contains (inclusive on
  // both edges) for BOTH regions — the historical gather loop therefore
  // enrolled them twice. The exclusive assignment must hand each to the
  // first containing region and only that one.
  const std::vector<Rect> regions = {
      {0, 0, 50, 100}, {50, 0, 100, 100}, {120, 0, 150, 30}};
  std::vector<Mote> motes(6);
  auto at = [&](size_t k, double x, double y) {
    motes[k].x = x;
    motes[k].y = y;
    motes[k].width = 4.0;
    motes[k].height = 4.0;
    motes[k].owner = static_cast<CellId>(k);
  };
  at(0, 25.0, 50.0);   // interior of region 0
  at(1, 75.0, 50.0);   // interior of region 1
  at(2, 50.0, 30.0);   // exactly on the shared edge
  at(3, 50.0, 70.0);   // exactly on the shared edge
  at(4, 50.0, 100.0);  // shared corner of regions 0 and 1
  at(5, 200.0, 200.0); // outside every region

  // Precondition of the old bug: the inclusive gather sees the boundary
  // motes in two regions at once.
  for (const size_t k : {size_t{2}, size_t{3}, size_t{4}}) {
    size_t hits = 0;
    for (const Rect& r : regions)
      if (r.contains(Point{motes[k].x, motes[k].y})) ++hits;
    EXPECT_EQ(hits, 2u) << "mote " << k;
  }

  const std::vector<size_t> owner = assign_motes_to_regions(regions, motes);
  ASSERT_EQ(owner.size(), motes.size());
  EXPECT_EQ(owner[0], 0u);
  EXPECT_EQ(owner[1], 1u);
  EXPECT_EQ(owner[2], 0u);  // first region in order wins
  EXPECT_EQ(owner[3], 0u);
  EXPECT_EQ(owner[4], 0u);
  EXPECT_EQ(owner[5], kNoSpreadRegion);
}

TEST(Lal, CapacityCacheIsTransparent) {
  // Warm projections (cached fixed-cell capacity field), a same-size
  // set_grid (must keep the cache), and a forced cold rebuild all have to
  // produce bitwise-identical results.
  Netlist nl = complx::testing::small_circuit(72, 1000, 1);
  const Placement p = piled(nl);
  LookAheadLegalizer lal(nl, {});
  const ProjectionResult cold = lal.project(p);   // builds the cache
  const ProjectionResult warm = lal.project(p);   // reuses it
  lal.set_grid(lal.bins_x(), lal.bins_y());       // same size: cache kept
  const ProjectionResult warm2 = lal.project(p);
  lal.invalidate_grid_cache();
  const ProjectionResult cold2 = lal.project(p);  // rebuilt from scratch
  for (const ProjectionResult* r : {&warm, &warm2, &cold2}) {
    EXPECT_EQ(cold.num_regions, r->num_regions);
    EXPECT_EQ(cold.displacement_l1, r->displacement_l1);
    complx::testing::expect_placements_bitwise_equal(cold.anchors, r->anchors);
  }
}

}  // namespace
}  // namespace complx
