#include <gtest/gtest.h>

#include "baseline/nonconvex.h"
#include "density/penalty.h"
#include "helpers.h"
#include "legal/tetris.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

// -------------------------------------------------------- density penalty --

TEST(DensityPenalty, ZeroWhenSpread) {
  // Low-utilization scatter: no bin exceeds capacity.
  GenParams prm;
  prm.num_cells = 600;
  prm.utilization = 0.25;
  prm.seed = 421;
  Netlist nl = generate_circuit(prm);
  DensityPenalty pen(nl, {});
  Vec gx, gy;
  EXPECT_NEAR(pen.value_and_grad(nl.snapshot(), gx, gy), 0.0, 1e-6);
}

TEST(DensityPenalty, PositiveOnPile) {
  Netlist nl = complx::testing::small_circuit(422, 800);
  Placement p = nl.snapshot();
  const Point c = nl.core().center();
  for (CellId id : nl.movable_cells()) {
    p.x[id] = c.x;
    p.y[id] = c.y;
  }
  DensityPenalty pen(nl, {});
  Vec gx, gy;
  EXPECT_GT(pen.value_and_grad(p, gx, gy), 0.0);
  EXPECT_GT(pen.overflow_ratio(p), 0.5);
}

TEST(DensityPenalty, GradientPushesOutOfHotspot) {
  // A cell at the edge of a pile should feel a force away from the center.
  Netlist nl = complx::testing::small_circuit(423, 800);
  Placement p = nl.snapshot();
  const Point c = nl.core().center();
  for (CellId id : nl.movable_cells()) {
    p.x[id] = c.x;
    p.y[id] = c.y;
  }
  const CellId probe = nl.movable_cells()[0];
  p.x[probe] = c.x + 20.0;  // just right of the pile
  DensityPenalty pen(nl, {});
  Vec gx, gy;
  pen.value_and_grad(p, gx, gy);
  // Positive gradient = objective rises moving right?? The penalty DECREASES
  // moving away from the pile, so dF/dx at the probe must be negative-left:
  // moving right (away) reduces F -> gradient in x is negative... direction:
  // F decreases as x increases => gx < 0.
  EXPECT_LT(gx[probe], 0.0);
}

TEST(DensityPenalty, GradientMatchesFiniteDifference) {
  Netlist nl = complx::testing::small_circuit(424, 300);
  Placement p = nl.snapshot();
  const Point c = nl.core().center();
  for (CellId id : nl.movable_cells()) {
    p.x[id] = c.x + (p.x[id] - c.x) * 0.15;
    p.y[id] = c.y + (p.y[id] - c.y) * 0.15;
  }
  DensityPenalty pen(nl, {});
  Vec gx, gy, tx, ty;
  pen.value_and_grad(p, gx, gy);
  const double h = 1e-3;
  int checked = 0;
  for (CellId id : nl.movable_cells()) {
    if (checked >= 8) break;
    ++checked;
    const double orig = p.x[id];
    p.x[id] = orig + h;
    const double fp = pen.value_and_grad(p, tx, ty);
    p.x[id] = orig - h;
    const double fm = pen.value_and_grad(p, tx, ty);
    p.x[id] = orig;
    const double fd = (fp - fm) / (2 * h);
    const double scale = std::max({std::abs(gx[id]), std::abs(fd), 1.0});
    // The per-cell normalization is treated as constant in the analytic
    // gradient (standard approximation), so allow a loose tolerance.
    EXPECT_NEAR(gx[id], fd, 0.15 * scale) << "cell " << id;
  }
}

// ------------------------------------------------------- nonconvex placer --

TEST(NonconvexPlacer, ConvergesAndLegalizes) {
  Netlist nl = complx::testing::small_circuit(425, 1500);
  NonconvexConfig cfg;
  NonconvexPlacer placer(nl, cfg);
  const NonconvexResult res = placer.place();
  EXPECT_LT(res.final_overflow, kNonconvexStopOverflow + 0.1);
  EXPECT_GT(res.rounds, 1);

  Placement p = res.placement;
  const LegalizeResult legal = TetrisLegalizer(nl).legalize(p);
  EXPECT_EQ(legal.failed, 0u);
  EXPECT_TRUE(TetrisLegalizer::is_legal(nl, p));
}

TEST(NonconvexPlacer, BeatsScatterOnHpwl) {
  Netlist nl = complx::testing::small_circuit(426, 1000);
  const double scatter = hpwl(nl, nl.snapshot());
  NonconvexPlacer placer(nl, {});
  const NonconvexResult res = placer.place();
  EXPECT_LT(hpwl(nl, res.placement), 0.8 * scatter);
}

}  // namespace
}  // namespace complx
