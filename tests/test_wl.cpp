#include <gtest/gtest.h>

#include "helpers.h"
#include "wl/b2b.h"
#include "wl/hpwl.h"
#include "wl/star_clique.h"

namespace complx {
namespace {

std::vector<PinSpring> b2b_springs(const Netlist& nl, const Placement& p,
                                   Axis axis, const B2bOptions& opts) {
  std::vector<PinSpring> springs;
  build_b2b(nl, p, axis, opts, springs);
  return springs;
}

std::vector<PinSpring> clique_springs(const Netlist& nl, const Placement& p,
                                      uint32_t clique_max_degree = 16) {
  std::vector<PinSpring> springs;
  build_clique(nl, p, Axis::X, {}, springs, nullptr, clique_max_degree);
  return springs;
}

std::vector<StarSpring> star_springs(const Netlist& nl, const Placement& p) {
  std::vector<StarSpring> springs;
  build_star(nl, p, Axis::X, {}, springs);
  return springs;
}

Netlist offset_pair() {
  // Two cells; one net whose pins have non-zero offsets.
  Netlist nl;
  Cell a;
  a.width = 4;
  a.height = 12;
  a.x = 0;
  a.y = 0;
  const CellId ia = nl.add_cell(a, "a");
  Cell b = a;
  b.x = 20;
  const CellId ib = nl.add_cell(b, "b");
  nl.add_net("n", 2.0, {{ia, 1.0, 2.0}, {ib, -1.0, -2.0}});
  nl.set_core({0, 0, 100, 100});
  nl.finalize();
  return nl;
}

TEST(Hpwl, UsesPinOffsets) {
  Netlist nl = offset_pair();
  const Placement p = nl.snapshot();
  // Pin positions: a: (2+1, 6+2) = (3, 8); b: (22-1, 6-2) = (21, 4).
  const Rect bb = net_bbox(nl, p, 0);
  EXPECT_DOUBLE_EQ(bb.xl, 3.0);
  EXPECT_DOUBLE_EQ(bb.xh, 21.0);
  EXPECT_DOUBLE_EQ(bb.yl, 4.0);
  EXPECT_DOUBLE_EQ(bb.yh, 8.0);
  EXPECT_DOUBLE_EQ(net_hpwl(nl, p, 0), 18.0 + 4.0);
  EXPECT_DOUBLE_EQ(hpwl(nl, p), 22.0);
  EXPECT_DOUBLE_EQ(weighted_hpwl(nl, p), 44.0);  // weight 2
}

TEST(Hpwl, ChainValue) {
  Netlist nl = complx::testing::two_cell_chain();
  Placement p = nl.snapshot();
  const CellId c0 = nl.find_cell("c0"), c1 = nl.find_cell("c1");
  p.x[c0] = 10.0;
  p.x[c1] = 20.0;
  p.y[c0] = p.y[c1] = 6.0;
  // pads at x=0 and x=30, same y: three nets of lengths 10,10,10; no y span.
  EXPECT_DOUBLE_EQ(hpwl(nl, p), 30.0);
}

TEST(Hpwl, SinglePinNetContributesZero) {
  Netlist nl;
  Cell a;
  a.width = 2;
  a.height = 2;
  const CellId ia = nl.add_cell(a, "a");
  nl.add_net("single", 1.0, {{ia, 0, 0}});
  nl.set_core({0, 0, 10, 10});
  nl.finalize();
  EXPECT_DOUBLE_EQ(hpwl(nl, nl.snapshot()), 0.0);
}

// ------------------------------------------------------------------ B2B ----

/// The defining property of the Bound2Bound model: at the linearization
/// point, the quadratic form equals the HPWL exactly (Spindler et al.).
TEST(B2b, QuadraticFormEqualsHpwlAtLinearizationPoint) {
  Netlist nl = complx::testing::small_circuit(21, 300);
  const Placement p = nl.snapshot();

  B2bOptions opts;
  opts.min_separation = 1e-9;  // exactness requires no clamping
  double quad = 0.0;
  for (Axis axis : {Axis::X, Axis::Y}) {
    const auto springs = b2b_springs(nl, p, axis, opts);
    for (const PinSpring& s : springs) {
      const Pin& a = nl.pin(s.p);
      const Pin& b = nl.pin(s.q);
      const double ca = axis == Axis::X ? p.x[a.cell] + a.dx
                                        : p.y[a.cell] + a.dy;
      const double cb = axis == Axis::X ? p.x[b.cell] + b.dx
                                        : p.y[b.cell] + b.dy;
      quad += s.weight * (ca - cb) * (ca - cb);
    }
  }
  const double exact = weighted_hpwl(nl, p);
  EXPECT_NEAR(quad, exact, 1e-6 * exact);
}

TEST(B2b, TwoPinNetSingleSpring) {
  Netlist nl = offset_pair();
  const Placement p = nl.snapshot();
  const auto springs = b2b_springs(nl, p, Axis::X, {});
  ASSERT_EQ(springs.size(), 1u);
  // weight = w / (P-1) / sep = 2 / 1 / 18.
  EXPECT_NEAR(springs[0].weight, 2.0 / 18.0, 1e-12);
}

TEST(B2b, SpringCountIs2DMinus3PerNet) {
  // A P-pin net has 1 + 2(P-2) = 2P-3 springs per axis.
  Netlist nl;
  std::vector<Pin> pins;
  for (int i = 0; i < 5; ++i) {
    Cell c;
    c.width = 2;
    c.height = 2;
    c.x = 3.0 * i;
    c.y = 2.0 * i;
    pins.push_back({nl.add_cell(c, "c" + std::to_string(i)), 0, 0});
  }
  nl.add_net("n", 1.0, pins);
  nl.set_core({0, 0, 100, 100});
  nl.finalize();
  const auto springs = b2b_springs(nl, nl.snapshot(), Axis::X, {});
  EXPECT_EQ(springs.size(), 2u * 5 - 3);
}

TEST(B2b, RefillsAReusedBuffer) {
  // A buffer holding more, stale springs than the next build emits must
  // come back holding exactly that build's springs.
  Netlist nl = complx::testing::small_circuit(22, 300);
  const Placement p = nl.snapshot();
  const std::vector<PinSpring> fresh = b2b_springs(nl, p, Axis::X, {});
  std::vector<PinSpring> reused(3 * fresh.size(), PinSpring{7, 9, -1.0});
  build_b2b(nl, p, Axis::X, {}, reused);
  ASSERT_EQ(reused.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(reused[i].p, fresh[i].p) << i;
    ASSERT_EQ(reused[i].q, fresh[i].q) << i;
    ASSERT_EQ(reused[i].weight, fresh[i].weight) << i;
  }
}

TEST(B2b, SkipsHugeNets) {
  Netlist nl;
  std::vector<Pin> pins;
  for (int i = 0; i < 20; ++i) {
    Cell c;
    c.width = 2;
    c.height = 2;
    c.x = i;
    pins.push_back({nl.add_cell(c, "c" + std::to_string(i)), 0, 0});
  }
  nl.add_net("big", 1.0, pins);
  nl.set_core({0, 0, 100, 100});
  nl.finalize();
  B2bOptions opts;
  opts.max_degree = 10;
  EXPECT_TRUE(b2b_springs(nl, nl.snapshot(), Axis::X, opts).empty());
}

TEST(B2b, MinSeparationBoundsWeights) {
  // Coincident pins must not produce infinite weights.
  Netlist nl;
  Cell a;
  a.width = 2;
  a.height = 2;
  a.x = 5;
  a.y = 5;
  const CellId ia = nl.add_cell(a, "a");
  Cell b = a;
  const CellId ib = nl.add_cell(b, "b");  // same location
  nl.add_net("n", 1.0, {{ia, 0, 0}, {ib, 0, 0}});
  nl.set_core({0, 0, 10, 10});
  nl.finalize();
  B2bOptions opts;
  opts.min_separation = 0.5;
  const auto springs = b2b_springs(nl, nl.snapshot(), Axis::X, opts);
  ASSERT_EQ(springs.size(), 1u);
  EXPECT_LE(springs[0].weight, 2.0 / 0.5 + 1e-12);
}

// --------------------------------------------------------------- clique ----

TEST(Clique, EdgeCountQuadratic) {
  Netlist nl;
  std::vector<Pin> pins;
  for (int i = 0; i < 6; ++i) {
    Cell c;
    c.width = 2;
    c.height = 2;
    c.x = 3.0 * i;
    pins.push_back({nl.add_cell(c, "c" + std::to_string(i)), 0, 0});
  }
  nl.add_net("n", 1.0, pins);
  nl.set_core({0, 0, 100, 100});
  nl.finalize();
  const auto springs = clique_springs(nl, nl.snapshot());
  EXPECT_EQ(springs.size(), 6u * 5 / 2);
}

TEST(Clique, LargeNetFallsBackToChain) {
  Netlist nl;
  std::vector<Pin> pins;
  for (int i = 0; i < 30; ++i) {
    Cell c;
    c.width = 2;
    c.height = 2;
    c.x = 2.0 * i;
    pins.push_back({nl.add_cell(c, "c" + std::to_string(i)), 0, 0});
  }
  nl.add_net("n", 1.0, pins);
  nl.set_core({0, 0, 100, 100});
  nl.finalize();
  const auto springs =
      clique_springs(nl, nl.snapshot(), /*clique_max_degree=*/16);
  EXPECT_EQ(springs.size(), 29u);  // chain
}

// ----------------------------------------------------------------- star ----

TEST(Star, CentersAtCentroid) {
  Netlist nl = offset_pair();
  const Placement p = nl.snapshot();
  const auto springs = star_springs(nl, p);
  ASSERT_EQ(springs.size(), 2u);
  // Pin coords 3 and 21 -> centroid 12.
  EXPECT_DOUBLE_EQ(springs[0].center, 12.0);
  EXPECT_DOUBLE_EQ(springs[1].center, 12.0);
  EXPECT_GT(springs[0].weight, 0.0);
}

TEST(Star, SkipsDegenerateNets) {
  Netlist nl;
  Cell a;
  a.width = 2;
  a.height = 2;
  const CellId ia = nl.add_cell(a, "a");
  nl.add_net("single", 1.0, {{ia, 0, 0}});
  nl.set_core({0, 0, 10, 10});
  nl.finalize();
  EXPECT_TRUE(star_springs(nl, nl.snapshot()).empty());
}

}  // namespace
}  // namespace complx
