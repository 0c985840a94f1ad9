// ECO (incremental re-placement) contract tests.
//
// The subsystem's two load-bearing guarantees are bitwise, not approximate:
//   1. a window that covers every movable cell IS a full solve — identical
//      bytes to ComplxPlacer::place() + apply();
//   2. a partial window never writes a cell outside it — positions, kinds
//      and pin offsets of outside cells compare equal byte for byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/eco.h"
#include "helpers.h"
#include "io/experience.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

ComplxConfig fast_config() {
  ComplxConfig cfg;
  cfg.max_iterations = 12;
  cfg.min_iterations = 4;
  return cfg;
}

/// An ECO that re-solved every movable cell with a plain place().
bool full_solve(const EcoResult& e) {
  return e.frozen_cells == 0 && e.dirty_cells > 0;
}

uint64_t bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

TEST(Eco, FullWindowIsBitwiseIdenticalToFullSolve) {
  Netlist eco_nl = testing::small_circuit(21, 400);
  Netlist ref_nl = eco_nl;  // value copy: same cells, nets, names

  // Window covering the whole plane: every movable is dirty.
  EcoOptions opts;
  opts.window = {-1e30, -1e30, 1e30, 1e30};
  opts.config = fast_config();
  const EcoResult eco = eco_replace(eco_nl, opts);
  EXPECT_TRUE(full_solve(eco));
  EXPECT_EQ(eco.dirty_cells, eco_nl.num_movable());
  EXPECT_EQ(eco.frozen_cells, 0u);

  ComplxPlacer placer(ref_nl, opts.config);
  const PlaceResult ref = placer.place();
  ref_nl.apply(ref.anchors);

  ASSERT_EQ(eco_nl.num_cells(), ref_nl.num_cells());
  for (CellId id = 0; id < eco_nl.num_cells(); ++id) {
    EXPECT_EQ(bits(eco_nl.cell(id).x), bits(ref_nl.cell(id).x)) << id;
    EXPECT_EQ(bits(eco_nl.cell(id).y), bits(ref_nl.cell(id).y)) << id;
  }
  EXPECT_EQ(eco.place.iterations, ref.iterations);
  EXPECT_EQ(bits(eco.place.returned.lambda), bits(ref.returned.lambda));
}

TEST(Eco, PartialWindowLeavesOutsideCellsBitExact) {
  Netlist nl = testing::small_circuit(22, 400);
  // Converge once so the ECO baseline is a realistic placement.
  {
    EcoOptions warm;
    warm.window = {-1e30, -1e30, 1e30, 1e30};
    warm.config = fast_config();
    eco_replace(nl, warm);
  }

  // Left half of the core is dirty; everything else must not move a bit.
  const Rect core = nl.core();
  EcoOptions opts;
  opts.window = {core.xl, core.yl, core.xl + core.width() / 2.0, core.yh};
  opts.config = fast_config();

  struct Before {
    uint64_t x, y;
    CellKind kind;
  };
  std::vector<Before> before(nl.num_cells());
  std::vector<bool> dirty(nl.num_cells(), false);
  const Placement snap = nl.snapshot();
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    before[id] = {bits(nl.cell(id).x), bits(nl.cell(id).y),
                  nl.cell(id).kind};
    dirty[id] = nl.cell(id).movable() &&
                opts.window.contains(Point{snap.x[id], snap.y[id]});
  }

  const EcoResult eco = eco_replace(nl, opts);
  EXPECT_FALSE(full_solve(eco));
  EXPECT_GT(eco.dirty_cells, 0u);
  EXPECT_GT(eco.frozen_cells, 0u);
  EXPECT_EQ(eco.dirty_cells + eco.frozen_cells, nl.num_movable());

  size_t moved = 0;
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    // Kinds restored everywhere (the freeze is invisible after the call).
    EXPECT_EQ(nl.cell(id).kind, before[id].kind) << id;
    if (!dirty[id]) {
      EXPECT_EQ(bits(nl.cell(id).x), before[id].x) << "cell " << id;
      EXPECT_EQ(bits(nl.cell(id).y), before[id].y) << "cell " << id;
    } else if (bits(nl.cell(id).x) != before[id].x ||
               bits(nl.cell(id).y) != before[id].y) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u) << "ECO solved but committed nothing";
}

TEST(Eco, EmptyWindowTouchesNothingAndRunsNoSolve) {
  Netlist nl = testing::small_circuit(23, 200);
  std::vector<std::pair<uint64_t, uint64_t>> before;
  for (CellId id = 0; id < nl.num_cells(); ++id)
    before.emplace_back(bits(nl.cell(id).x), bits(nl.cell(id).y));

  EcoOptions opts;
  opts.window = {-2000.0, -2000.0, -1000.0, -1000.0};  // outside the core
  opts.config = fast_config();
  const EcoResult eco = eco_replace(nl, opts);
  EXPECT_EQ(eco.dirty_cells, 0u);
  EXPECT_FALSE(full_solve(eco));
  EXPECT_EQ(eco.place.iterations, 0);
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    EXPECT_EQ(bits(nl.cell(id).x), before[id].first) << id;
    EXPECT_EQ(bits(nl.cell(id).y), before[id].second) << id;
  }
}

// Chaos-labeled: a warm-start snapshot (experience store) feeding an ECO
// pass. The stored placement seeds a resumed solve (the caller probes the
// store, as complx_place --warm-start does); the partial window then
// re-solves an island on top of the resumed result. Exercises the store →
// placer → freeze/refinalize → commit pipeline end to end.
TEST(EcoChaos, WarmStartSnapshotFeedsEcoPass) {
  Netlist nl = testing::small_circuit(25, 300);

  ExperienceStore::Options so;
  so.path = ::testing::TempDir() + "complx_eco_warm.snap";
  so.fsync = false;  // test scratch; durability is test_chaos_io's concern
  std::remove(so.path.c_str());
  ExperienceStore store(so);
  ASSERT_EQ(store.open(), SnapshotError::None);

  // Produce and record a converged placement.
  ComplxConfig cfg = fast_config();
  const PlaceResult cold = ComplxPlacer(nl, cfg).place();
  ASSERT_NE(cold.stop, StopReason::Diverged) << cold.failure;
  ASSERT_TRUE(store.record(nl, cold.anchors,
                           weighted_hpwl(nl, cold.anchors),
                           cold.iterations));

  // Resume from the store: must warm-start, not re-run the cold bootstrap.
  const std::optional<Placement> start = store.resume_point(nl);
  ASSERT_TRUE(start.has_value());
  const PlaceResult resumed = ComplxPlacer(nl, cfg).resume(*start);
  // A resume starts at the finest grid, which the cold run refined to.
  EXPECT_GT(resumed.trace.front().grid_bins, cold.trace.front().grid_bins);
  EXPECT_NE(resumed.stop, StopReason::Diverged) << resumed.failure;
  nl.apply(resumed.anchors);

  // Partial ECO on the resumed placement: outside cells bit-exact.
  const Rect core = nl.core();
  EcoOptions part;
  part.window = {core.xl, core.yl, core.xl + core.width() / 3.0,
                 core.yl + core.height() / 3.0};
  part.config = cfg;
  std::vector<std::pair<uint64_t, uint64_t>> before;
  std::vector<bool> dirty(nl.num_cells(), false);
  const Placement snap = nl.snapshot();
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    before.emplace_back(bits(nl.cell(id).x), bits(nl.cell(id).y));
    dirty[id] = nl.cell(id).movable() &&
                part.window.contains(Point{snap.x[id], snap.y[id]});
  }
  const EcoResult eco = eco_replace(nl, part);
  EXPECT_NE(eco.place.stop, StopReason::Diverged) << eco.place.failure;
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    if (dirty[id]) continue;
    EXPECT_EQ(bits(nl.cell(id).x), before[id].first) << id;
    EXPECT_EQ(bits(nl.cell(id).y), before[id].second) << id;
  }
}

}  // namespace
}  // namespace complx
