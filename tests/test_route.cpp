#include <gtest/gtest.h>

#include "core/placer.h"
#include "helpers.h"
#include "projection/lal.h"
#include "route/inflate.h"
#include "route/rudy.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

/// Two cells with one net spanning a known box; RUDY demand is verifiable
/// by hand.
struct RudyFixture {
  Netlist nl;
  RudyFixture() {
    Cell a;
    a.width = 2;
    a.height = 2;
    a.x = 10 - 1;
    a.y = 10 - 1;
    const CellId ia = nl.add_cell(a, "a");
    Cell b = a;
    b.x = 90 - 1;
    b.y = 50 - 1;
    const CellId ib = nl.add_cell(b, "b");
    nl.add_net("n", 1.0, {{ia, 0, 0}, {ib, 0, 0}});
    nl.set_core({0, 0, 100, 100});
    nl.finalize();
  }
};

TEST(Rudy, DemandConcentratesInNetBox) {
  RudyFixture f;
  RudyOptions opts;
  opts.bins_x = opts.bins_y = 10;
  CongestionMap map(f.nl, opts);
  map.build(f.nl.snapshot());
  // Net box spans x 10..90, y 10..50. Inside: nonzero congestion; far
  // corner: zero.
  EXPECT_GT(map.congestion_at(50, 30), 0.0);
  EXPECT_DOUBLE_EQ(map.congestion_at(95, 95), 0.0);
}

TEST(Rudy, TotalDemandEqualsWirelength) {
  // Integrated horizontal demand = Σ net widths; vertical = Σ net heights.
  RudyFixture f;
  RudyOptions opts;
  opts.bins_x = opts.bins_y = 10;
  opts.supply_per_area = 1.0;  // capacity = bin area => demand = cong*area
  CongestionMap map(f.nl, opts);
  map.build(f.nl.snapshot());
  double h_total = 0.0, v_total = 0.0;
  const double bin_area = 10.0 * 10.0;
  for (size_t j = 0; j < 10; ++j)
    for (size_t i = 0; i < 10; ++i) {
      h_total += map.h_congestion(i, j) * bin_area;
      v_total += map.v_congestion(i, j) * bin_area;
    }
  EXPECT_NEAR(h_total, 80.0, 1e-6);  // net width
  EXPECT_NEAR(v_total, 40.0, 1e-6);  // net height
}

TEST(Rudy, WeightScalesDemand) {
  RudyFixture f;
  f.nl.net(0).weight = 3.0;
  RudyOptions opts;
  opts.bins_x = opts.bins_y = 10;
  CongestionMap map(f.nl, opts);
  map.build(f.nl.snapshot());
  RudyFixture g;
  CongestionMap ref(g.nl, opts);
  ref.build(g.nl.snapshot());
  EXPECT_NEAR(map.congestion_at(50, 30), 3.0 * ref.congestion_at(50, 30),
              1e-9);
}

TEST(Rudy, DegenerateNetStillConsumesResources) {
  Netlist nl;
  Cell a;
  a.width = 2;
  a.height = 12;
  a.x = 49;
  a.y = 44;
  const CellId ia = nl.add_cell(a, "a");
  Cell b = a;
  const CellId ib = nl.add_cell(b, "b");  // identical location: zero bbox
  nl.add_net("n", 1.0, {{ia, 0, 0}, {ib, 0, 0}});
  nl.set_core({0, 0, 100, 100});
  nl.finalize();
  RudyOptions opts;
  opts.bins_x = opts.bins_y = 10;
  CongestionMap map(nl, opts);
  map.build(nl.snapshot());
  EXPECT_GT(map.peak_congestion(), 0.0);
}

TEST(Rudy, StatisticsAreConsistent) {
  Netlist nl = complx::testing::small_circuit(141, 1000);
  CongestionMap map(nl, {});
  map.build(nl.snapshot());
  EXPECT_GE(map.peak_congestion(), map.avg_congestion());
  EXPECT_GE(map.overcongested_fraction(0.0), map.overcongested_fraction(1.0));
  EXPECT_LE(map.overcongested_fraction(0.0), 1.0);
}

// -------------------------------------------------------------- inflate ----

TEST(Inflate, OnlyCongestedCellsInflate) {
  Netlist nl = complx::testing::small_circuit(142, 1000);
  // Pile the placement to manufacture congestion in the center.
  Placement p = nl.snapshot();
  const Point c = nl.core().center();
  for (CellId id : nl.movable_cells()) {
    p.x[id] = c.x + (p.x[id] - c.x) * 0.1;
    p.y[id] = c.y + (p.y[id] - c.y) * 0.1;
  }
  CongestionMap map(nl, {});
  map.build(p);
  const Vec f = compute_inflation(nl, p, map);
  size_t inflated = 0;
  for (CellId id : nl.movable_cells()) {
    EXPECT_GE(f[id], 1.0);
    EXPECT_LE(f[id], kMaxInflation);
    if (f[id] > 1.0) ++inflated;
  }
  EXPECT_GT(inflated, 0u);
  // Fixed cells untouched.
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    if (!nl.cell(id).movable()) {
      EXPECT_DOUBLE_EQ(f[id], 1.0);
    }
  }
}

TEST(Inflate, MacrosNeverInflate) {
  Netlist nl = complx::testing::small_circuit(143, 800, 3);
  CongestionMap map(nl, {});
  map.build(nl.snapshot());
  InflationOptions opts;
  opts.threshold = 0.0001;  // everything counts as congested
  const Vec f = compute_inflation(nl, nl.snapshot(), map, opts);
  for (CellId id : nl.movable_cells()) {
    if (nl.cell(id).is_macro()) {
      EXPECT_DOUBLE_EQ(f[id], 1.0);
    }
  }
}

// -------------------------------------------------- projection integration --

TEST(Lal, InflationSpreadsWider) {
  Netlist nl = complx::testing::small_circuit(144, 1200);
  Placement p = nl.snapshot();
  const Point c = nl.core().center();
  for (CellId id : nl.movable_cells()) {
    p.x[id] = c.x;
    p.y[id] = c.y;
  }
  auto footprint = [&](double factor) {
    LookAheadLegalizer lal(nl, {});
    if (factor > 1.0) lal.set_inflation(Vec(nl.num_cells(), factor));
    const ProjectionResult res = lal.project(p);
    double xl = 1e18, xh = -1e18;
    for (CellId id : nl.movable_cells()) {
      xl = std::min(xl, res.anchors.x[id]);
      xh = std::max(xh, res.anchors.x[id]);
    }
    return xh - xl;
  };
  EXPECT_GT(footprint(2.0), 1.1 * footprint(1.0));
}

TEST(Lal, InflationSizeMismatchThrows) {
  Netlist nl = complx::testing::small_circuit(145, 400);
  LookAheadLegalizer lal(nl, {});
  EXPECT_THROW(lal.set_inflation(Vec(3, 1.0)), std::invalid_argument);
  lal.set_inflation({});  // clearing is fine
}

// ------------------------------------------------------ placer integration --

TEST(Routability, ModeReducesPeakCongestion) {
  // A congestion-prone design: high locality means big shared bounding
  // boxes when clusters pack tightly.
  GenParams prm;
  prm.num_cells = 2000;
  prm.seed = 146;
  prm.utilization = 0.75;  // tight
  Netlist nl = generate_circuit(prm);

  auto run = [&](bool routability) {
    ComplxConfig cfg;
    cfg.max_iterations = 45;
    cfg.routability.enabled = routability;
    ComplxPlacer placer(nl, cfg);
    const PlaceResult res = placer.place();
    CongestionMap map(nl, {});
    map.build(res.anchors);
    return std::pair<double, double>{map.peak_congestion(),
                                     hpwl(nl, res.anchors)};
  };
  const auto [peak_off, hpwl_off] = run(false);
  const auto [peak_on, hpwl_on] = run(true);
  // Routability mode must not increase peak congestion, at bounded HPWL
  // cost (SimPLR's trade-off).
  EXPECT_LE(peak_on, peak_off * 1.02);
  EXPECT_LE(hpwl_on, hpwl_off * 1.25);
}

}  // namespace
}  // namespace complx
