#include <gtest/gtest.h>

#include "baseline/fastplace_style.h"
#include "density/grid.h"
#include "helpers.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

TEST(FastPlaceStyle, ConvergesBelowOverflowTarget) {
  Netlist nl = complx::testing::small_circuit(111, 1000);
  FastPlaceStylePlacer placer(nl);
  const FastPlaceResult res = placer.place();
  EXPECT_LT(res.final_overflow, kFastPlaceStopOverflow + 0.05);
  EXPECT_GT(res.iterations, 1);
}

TEST(FastPlaceStyle, BeatsRandomScatterOnHpwl) {
  Netlist nl = complx::testing::small_circuit(112, 1000);
  const double scatter = hpwl(nl, nl.snapshot());
  FastPlaceStylePlacer placer(nl);
  const FastPlaceResult res = placer.place();
  EXPECT_LT(hpwl(nl, res.placement), 0.8 * scatter);
}

TEST(FastPlaceStyle, CellsStayInCore) {
  Netlist nl = complx::testing::small_circuit(113, 600);
  FastPlaceStylePlacer placer(nl);
  const FastPlaceResult res = placer.place();
  for (CellId id : nl.movable_cells()) {
    EXPECT_TRUE(nl.core().contains(
        Point{res.placement.x[id], res.placement.y[id]}))
        << nl.cell_name(id);
  }
}

TEST(FastPlaceStyle, SpreadsThePile) {
  Netlist nl = complx::testing::small_circuit(114, 1200);
  FastPlaceStylePlacer placer(nl);
  const FastPlaceResult res = placer.place();
  DensityGrid g(nl, 16, 16);
  g.build(res.placement);
  // Residual overflow against full utilization must be far below the
  // ~90% a center pile would show — diffusion worked.
  EXPECT_LT(g.total_overflow(1.0) / nl.movable_area(), 0.45);
}

TEST(FastPlaceStyle, DeterministicAcrossRuns) {
  Netlist nl = complx::testing::small_circuit(115, 500);
  const FastPlaceResult a = FastPlaceStylePlacer(nl).place();
  const FastPlaceResult b = FastPlaceStylePlacer(nl).place();
  ASSERT_EQ(a.placement.size(), b.placement.size());
  for (size_t i = 0; i < a.placement.size(); ++i)
    EXPECT_DOUBLE_EQ(a.placement.x[i], b.placement.x[i]);
}

}  // namespace
}  // namespace complx
