#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>

#include "density/grid.h"
#include "density/metric.h"
#include "density/penalty.h"
#include "helpers.h"
#include "util/parallel.h"
#include "util/rng.h"

// Global operator new/delete replacement for the cached-grid
// allocation-freedom regression below (same pattern as test_linalg.cpp).
// The counter only ticks while armed, so the rest of the binary is
// unaffected. Must live at global scope.
namespace alloc_counter {
std::atomic<bool> armed{false};
std::atomic<size_t> news{0};

size_t drain() {
  armed.store(false, std::memory_order_relaxed);
  return news.exchange(0, std::memory_order_relaxed);
}
void arm() { armed.store(true, std::memory_order_relaxed); }
}  // namespace alloc_counter

// GCC pairs the malloc inside the replaced operator new with deletes at
// call sites and (wrongly) reports a mismatch; every allocation in this
// binary goes through these replacements, so malloc/free always pair up.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t sz) {
  if (alloc_counter::armed.load(std::memory_order_relaxed))
    alloc_counter::news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace complx {
namespace {

/// One 10x10 movable cell in a 100x100 core with a 10x10 grid.
Netlist one_cell_core() {
  Netlist nl;
  Cell c;
  c.width = 10;
  c.height = 10;
  c.x = 0;
  c.y = 0;
  nl.add_cell(c, "a");
  nl.set_core({0, 0, 100, 100});
  nl.finalize();
  return nl;
}

TEST(DensityGrid, CapacityIsBinAreaWithoutBlockage) {
  Netlist nl = one_cell_core();
  DensityGrid g(nl, 10, 10);
  EXPECT_DOUBLE_EQ(g.bin_width(), 10.0);
  EXPECT_DOUBLE_EQ(g.bin_height(), 10.0);
  for (size_t j = 0; j < 10; ++j)
    for (size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(g.capacity(i, j), 100.0);
}

TEST(DensityGrid, FixedBlockageReducesCapacity) {
  Netlist nl;
  Cell blk;
  blk.width = 10;
  blk.height = 10;
  blk.x = 0;
  blk.y = 0;
  blk.kind = CellKind::Fixed;
  nl.add_cell(blk, "blk");
  Cell c;
  c.width = 2;
  c.height = 2;
  nl.add_cell(c, "a");
  nl.set_core({0, 0, 100, 100});
  nl.finalize();
  DensityGrid g(nl, 10, 10);
  EXPECT_DOUBLE_EQ(g.capacity(0, 0), 0.0);  // fully blocked bin
  EXPECT_DOUBLE_EQ(g.capacity(1, 0), 100.0);
}

TEST(DensityGrid, UsageSplitsAcrossBins) {
  Netlist nl = one_cell_core();
  Placement p = nl.snapshot();
  // Center the 10x10 cell at a bin corner: area splits 25/25/25/25.
  p.x[0] = 10.0;
  p.y[0] = 10.0;
  DensityGrid g(nl, 10, 10);
  g.build(p);
  EXPECT_DOUBLE_EQ(g.usage(0, 0), 25.0);
  EXPECT_DOUBLE_EQ(g.usage(1, 0), 25.0);
  EXPECT_DOUBLE_EQ(g.usage(0, 1), 25.0);
  EXPECT_DOUBLE_EQ(g.usage(1, 1), 25.0);
}

TEST(DensityGrid, TotalUsageEqualsMovableAreaInsideCore) {
  Netlist nl = complx::testing::small_circuit(41, 500);
  const Placement p = nl.snapshot();
  DensityGrid g(nl, 16, 16);
  g.build(p);
  double total = 0.0;
  for (size_t j = 0; j < 16; ++j)
    for (size_t i = 0; i < 16; ++i) total += g.usage(i, j);
  EXPECT_NEAR(total, nl.movable_area(), 1e-6 * nl.movable_area());
}

TEST(DensityGrid, OverflowAndFeasibility) {
  Netlist nl = one_cell_core();
  Placement p = nl.snapshot();
  p.x[0] = 5.0;
  p.y[0] = 5.0;  // entirely inside bin (0, 0)
  DensityGrid g(nl, 10, 10);
  g.build(p);
  // usage(0,0) = 100, capacity = 100, gamma = 0.5 -> overflow 50.
  EXPECT_DOUBLE_EQ(g.overflow(0, 0, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(g.total_overflow(0.5), 50.0);
  EXPECT_FALSE(g.feasible(0.5));
  EXPECT_TRUE(g.feasible(1.0));
}

TEST(DensityGrid, BinLookupClamps) {
  Netlist nl = one_cell_core();
  DensityGrid g(nl, 10, 10);
  EXPECT_EQ(g.bin_x_of(-5.0), 0u);
  EXPECT_EQ(g.bin_x_of(95.0), 9u);
  EXPECT_EQ(g.bin_x_of(1000.0), 9u);
  EXPECT_EQ(g.bin_y_of(15.0), 1u);
}

TEST(DensityGrid, FreeAreaInRectIntegrates) {
  Netlist nl = one_cell_core();
  DensityGrid g(nl, 10, 10);
  EXPECT_NEAR(g.free_area_in({0, 0, 100, 100}), 100.0 * 100.0, 1e-9);
  EXPECT_NEAR(g.free_area_in({0, 0, 50, 100}), 50.0 * 100.0, 1e-9);
  // Half-bin slice: uniform-within-bin assumption gives exact half.
  EXPECT_NEAR(g.free_area_in({0, 0, 5, 10}), 50.0, 1e-9);
}

TEST(DensityGrid, UsageInRectTracksDeposits) {
  Netlist nl = one_cell_core();
  Placement p = nl.snapshot();
  p.x[0] = 5.0;
  p.y[0] = 5.0;
  DensityGrid g(nl, 10, 10);
  g.build(p);
  EXPECT_NEAR(g.usage_in({0, 0, 10, 10}), 100.0, 1e-9);
  EXPECT_NEAR(g.usage_in({0, 0, 100, 100}), 100.0, 1e-9);
  EXPECT_NEAR(g.usage_in({50, 50, 100, 100}), 0.0, 1e-9);
}

TEST(DensityGrid, BuildFromRectsMatchesBuild) {
  Netlist nl = complx::testing::small_circuit(42, 300);
  const Placement p = nl.snapshot();
  DensityGrid a(nl, 8, 8), b(nl, 8, 8);
  a.build(p);
  std::vector<Rect> rects;
  for (CellId id : nl.movable_cells()) {
    const Cell& c = nl.cell(id);
    rects.push_back({p.x[id] - c.width / 2, p.y[id] - c.height / 2,
                     p.x[id] + c.width / 2, p.y[id] + c.height / 2});
  }
  b.build_from_rects(rects);
  for (size_t j = 0; j < 8; ++j)
    for (size_t i = 0; i < 8; ++i)
      EXPECT_NEAR(a.usage(i, j), b.usage(i, j), 1e-9);
}

TEST(DensityGrid, ZeroBinsThrows) {
  Netlist nl = one_cell_core();
  EXPECT_THROW(DensityGrid(nl, 0, 4), std::invalid_argument);
}

// --------------------------------------------------------------- metric ----

TEST(Metric, NoOverflowMeansScaledEqualsPlain) {
  Netlist nl = complx::testing::small_circuit(43, 400);
  // Spread-out initial placement from the generator is roughly uniform.
  nl.set_target_density(1.0);
  const DensityMetric m = evaluate_scaled_hpwl(nl, nl.snapshot());
  EXPECT_GE(m.scaled_hpwl, m.hpwl);
  EXPECT_LT(m.overflow_percent, 40.0);  // sanity: not everything overflows
}

TEST(Metric, PileUpIsPenalized) {
  Netlist nl = complx::testing::small_circuit(44, 400);
  Placement piled = nl.snapshot();
  const Point c = nl.core().center();
  for (CellId id : nl.movable_cells()) {
    piled.x[id] = c.x;
    piled.y[id] = c.y;
  }
  const DensityMetric spread = evaluate_scaled_hpwl(nl, nl.snapshot());
  const DensityMetric pile = evaluate_scaled_hpwl(nl, piled);
  EXPECT_GT(pile.overflow_percent, spread.overflow_percent);
  EXPECT_GT(pile.scaled_hpwl / std::max(pile.hpwl, 1e-9), 1.2);
}

TEST(Metric, RespectsExplicitBins) {
  Netlist nl = complx::testing::small_circuit(45, 300);
  const DensityMetric coarse = evaluate_scaled_hpwl(nl, nl.snapshot(), 2, 2);
  const DensityMetric fine = evaluate_scaled_hpwl(nl, nl.snapshot(), 64, 64);
  // Finer grids can only expose more (or equal) overflow.
  EXPECT_GE(fine.overflow_percent + 1e-9, coarse.overflow_percent);
}


// ---------------------------------------------------------------------------
// Summed-area-table query path (DensityOptions::use_prefix_sums, default on)
// ---------------------------------------------------------------------------

/// The SAT and loop paths compute the same sum with a different FP
/// association, so the meaningful tolerance is absolute, scaled by the
/// grand total of the field (cancellation in the 4-corner query is bounded
/// by eps times the table's largest entry).
TEST(DensityGridPrefix, MatchesLoopOnRandomRects) {
  const Netlist nl = complx::testing::small_circuit(23, 3000, 1);
  const Placement p = nl.snapshot();
  DensityOptions loop_opts;
  loop_opts.use_prefix_sums = false;
  DensityGrid fast(nl, 33, 47);  // non-square on purpose
  DensityGrid slow(nl, 33, 47, loop_opts);
  ASSERT_TRUE(fast.options().use_prefix_sums);
  ASSERT_FALSE(slow.options().use_prefix_sums);
  fast.build(p);
  slow.build(p);

  const Rect core = nl.core();
  const double cap_scale = std::max(1.0, slow.free_area_in(core));
  const double use_scale = std::max(1.0, slow.usage_in(core));
  Rng rng(99);
  for (int t = 0; t < 500; ++t) {
    const double margin = 0.05 * core.width();
    double xa = rng.uniform(core.xl - margin, core.xh + margin);
    double xb = rng.uniform(core.xl - margin, core.xh + margin);
    double ya = rng.uniform(core.yl - margin, core.yh + margin);
    double yb = rng.uniform(core.yl - margin, core.yh + margin);
    const Rect r{std::min(xa, xb), std::min(ya, yb), std::max(xa, xb),
                 std::max(ya, yb)};
    EXPECT_NEAR(fast.free_area_in(r), slow.free_area_in(r), 1e-9 * cap_scale)
        << "rect " << t;
    EXPECT_NEAR(fast.usage_in(r), slow.usage_in(r), 1e-9 * use_scale)
        << "rect " << t;
  }
}

TEST(DensityGridPrefix, SpanSumsMatchPerBinLoops) {
  const Netlist nl = complx::testing::small_circuit(24, 2000, 1);
  const Placement p = nl.snapshot();
  DensityOptions loop_opts;
  loop_opts.use_prefix_sums = false;
  DensityGrid fast(nl, 20, 20);
  DensityGrid slow(nl, 20, 20, loop_opts);
  fast.build(p);
  slow.build(p);
  const double cap_scale =
      std::max(1.0, slow.capacity_sum(0, 0, 19, 19));
  const double use_scale = std::max(1.0, slow.usage_sum(0, 0, 19, 19));
  Rng rng(7);
  for (int t = 0; t < 300; ++t) {
    size_t i0 = static_cast<size_t>(rng.uniform_index(20));
    size_t i1 = static_cast<size_t>(rng.uniform_index(20));
    size_t j0 = static_cast<size_t>(rng.uniform_index(20));
    size_t j1 = static_cast<size_t>(rng.uniform_index(20));
    if (i1 < i0) std::swap(i0, i1);
    if (j1 < j0) std::swap(j0, j1);
    EXPECT_NEAR(fast.capacity_sum(i0, j0, i1, j1),
                slow.capacity_sum(i0, j0, i1, j1), 1e-9 * cap_scale);
    EXPECT_NEAR(fast.usage_sum(i0, j0, i1, j1),
                slow.usage_sum(i0, j0, i1, j1), 1e-9 * use_scale);
  }
}

TEST(DensityGridPrefix, ExactOnRepresentableFractions) {
  // Round-number fixture: bin edges, capacities, and the query's fractional
  // bin coverages are all exact in binary, so the SAT path must agree with
  // the loop to the last bit.
  Netlist nl = one_cell_core();
  Placement p = nl.snapshot();
  p.x[0] = 10.0;
  p.y[0] = 10.0;
  DensityOptions loop_opts;
  loop_opts.use_prefix_sums = false;
  DensityGrid fast(nl, 10, 10);
  DensityGrid slow(nl, 10, 10, loop_opts);
  fast.build(p);
  slow.build(p);
  const Rect queries[] = {{0, 0, 50, 50},
                          {0, 0, 45, 45},
                          {5, 5, 12.5, 17.5},
                          {-10, -10, 200, 200},
                          {7.5, 12.5, 7.5, 30}};
  for (const Rect& r : queries) {
    EXPECT_DOUBLE_EQ(fast.free_area_in(r), slow.free_area_in(r));
    EXPECT_DOUBLE_EQ(fast.usage_in(r), slow.usage_in(r));
  }
}

TEST(DensityGrid, NonFiniteCoordinateClampsToValidBin) {
  // bin_x_of/bin_y_of used to floor-then-cast, which is undefined behavior
  // on NaN/inf input (caught by ubsan); the guard clamps instead.
  Netlist nl = one_cell_core();
  DensityGrid g(nl, 10, 10);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(g.bin_x_of(nan), 0u);
  EXPECT_EQ(g.bin_y_of(nan), 0u);
  EXPECT_EQ(g.bin_x_of(-inf), 0u);
  EXPECT_EQ(g.bin_y_of(-inf), 0u);
  EXPECT_EQ(g.bin_x_of(inf), 9u);
  EXPECT_EQ(g.bin_y_of(inf), 9u);
  // Finite inputs behave exactly as before.
  EXPECT_EQ(g.bin_x_of(-5.0), 0u);
  EXPECT_EQ(g.bin_x_of(0.0), 0u);
  EXPECT_EQ(g.bin_x_of(55.0), 5u);
  EXPECT_EQ(g.bin_x_of(100.0), 9u);
  EXPECT_EQ(g.bin_x_of(1e12), 9u);
}

// ---------------------------------------------------------------------------
// DensityPenalty: gradient contract and hot-path regressions
// ---------------------------------------------------------------------------

TEST(DensityPenalty, GradientAgreesWithFiniteDifference) {
  // The bell penalty's gradient treats the per-cell normalization as
  // locally constant, so per-component agreement is approximate; require
  // strong directional agreement (cosine similarity) instead.
  Netlist nl = complx::testing::small_circuit(31, 80);
  Placement p = nl.snapshot();
  DensityPenaltyOptions opts;
  opts.bins = 12;
  const DensityPenalty pen(nl, opts);

  Vec gx, gy;
  const double base = pen.value_and_grad(p, gx, gy);
  ASSERT_GT(base, 0.0);

  const double h = 0.05;
  Vec tx, ty;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t k = 0; k < nl.movable_cells().size() && k < 40; ++k) {
    const CellId id = nl.movable_cells()[k];
    const double save = p.x[id];
    p.x[id] = save + h;
    const double fp_ = pen.value_and_grad(p, tx, ty);
    p.x[id] = save - h;
    const double fm = pen.value_and_grad(p, tx, ty);
    p.x[id] = save;
    const double fd = (fp_ - fm) / (2.0 * h);
    dot += fd * gx[id];
    na += fd * fd;
    nb += gx[id] * gx[id];
  }
  ASSERT_GT(na, 0.0);
  ASSERT_GT(nb, 0.0);
  EXPECT_GT(dot / std::sqrt(na * nb), 0.90)
      << "penalty gradient no longer points along the finite difference";
}

TEST(DensityPenalty, OverflowRatioReusesCachedGrid) {
  // overflow_ratio used to construct a fresh DensityGrid — including the
  // full fixed-blockage scan — on EVERY call. The cached grid only
  // re-deposits the movable field, which on a small serial fixture reuses
  // the existing buffers entirely.
  const size_t prev = global_threads();
  set_global_threads(1);
  Netlist nl = complx::testing::small_circuit(51, 200);
  const Placement p = nl.snapshot();
  DensityPenalty pen(nl, {});
  (void)pen.overflow_ratio(p);  // warm-up: grid constructed and sized

  alloc_counter::arm();
  const double r1 = pen.overflow_ratio(p);
  const double r2 = pen.overflow_ratio(p);
  const size_t allocations = alloc_counter::drain();
  set_global_threads(prev);
  EXPECT_EQ(r1, r2);
  // The pre-fix code performed dozens of allocations per call (five grid
  // field vectors plus the blockage scan scratch, twice). The cached path's
  // only heap traffic is the std::function wrapper around the deposit
  // lambda.
  EXPECT_LE(allocations, 4u)
      << "overflow_ratio is rebuilding its DensityGrid again";
}

TEST(DensityPenalty, OffCoreCellsKeepTheirAreaAndAreCounted) {
  // Pre-fix behavior: an off-core center produced an empty bins_touching
  // window, the wsum guard dropped the cell's whole area, and the pile-up
  // at the boundary was invisible to the penalty (value stayed 0).
  Netlist nl = complx::testing::small_circuit(52, 60);
  Placement p = nl.snapshot();
  for (CellId id : nl.movable_cells()) {
    p.x[id] = nl.core().xh + 500.0;  // far off the right edge
    p.y[id] = nl.core().center().y;
  }
  DensityPenalty pen(nl, {});
  Vec gx, gy;
  const double value = pen.value_and_grad(p, gx, gy);
  EXPECT_GT(value, 0.0)
      << "area of off-core cells vanished from the density field";
  EXPECT_EQ(pen.stats().clamped_cells, nl.num_movable());
  // The clamped pile sits on the right edge: the gradient must push the
  // cells back toward the core, not be silently zero.
  double gsum = 0.0;
  for (CellId id : nl.movable_cells()) {
    EXPECT_TRUE(std::isfinite(gx[id]));
    gsum += std::abs(gx[id]) + std::abs(gy[id]);
  }
  EXPECT_GT(gsum, 0.0);
}

TEST(DensityPenalty, NonFiniteCenterIsDefinedAndCounted) {
  Netlist nl = complx::testing::small_circuit(53, 40);
  Placement p = nl.snapshot();
  const CellId sick = nl.movable_cells()[0];
  p.x[sick] = std::numeric_limits<double>::quiet_NaN();
  DensityPenalty pen(nl, {});
  Vec gx, gy;
  const double value = pen.value_and_grad(p, gx, gy);
  EXPECT_TRUE(std::isfinite(value));
  EXPECT_EQ(pen.stats().clamped_cells, 1u);
  for (CellId id : nl.movable_cells()) {
    EXPECT_TRUE(std::isfinite(gx[id]));
    EXPECT_TRUE(std::isfinite(gy[id]));
  }
}

TEST(DensityPenalty, GridOptionsReachTheInternalGrid) {
  // The internal grid used to be constructed with default DensityOptions,
  // silently ignoring use_prefix_sums=false ablation configs.
  Netlist nl = complx::testing::small_circuit(54, 100);
  DensityPenaltyOptions on;
  on.grid.use_prefix_sums = true;
  DensityPenaltyOptions off;
  off.grid.use_prefix_sums = false;
  DensityPenalty pen_on(nl, on);
  DensityPenalty pen_off(nl, off);
  EXPECT_TRUE(pen_on.grid().options().use_prefix_sums);
  EXPECT_FALSE(pen_off.grid().options().use_prefix_sums);
  // Both query paths agree on the metric itself.
  const Placement p = nl.snapshot();
  EXPECT_NEAR(pen_on.overflow_ratio(p), pen_off.overflow_ratio(p), 1e-12);
}

}  // namespace
}  // namespace complx
