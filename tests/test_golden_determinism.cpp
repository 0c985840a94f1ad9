// Seed-anchored end-to-end determinism: the full Placer, run at 1 thread
// and at the maximum thread count, must produce identical final coordinates,
// identical iteration counts, and an identical per-iteration (Φ, Π, λ)
// trace. Every future performance PR must keep this green — it is the
// regression net that lets hot paths be rewritten without re-validating
// placement quality.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/placer.h"
#include "density/grid.h"
#include "gen/fleet.h"
#include "helpers.h"
#include "legal/abacus.h"
#include "multilevel/cluster.h"
#include "legal/tetris.h"
#include "projection/lal.h"
#include "projection/spreader.h"
#include "timing/sta.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace complx {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { set_global_threads(0); }
};

void expect_traces_identical(const std::vector<IterationStats>& a,
                             const std::vector<IterationStats>& b) {
  ASSERT_EQ(a.size(), b.size()) << "trace length differs";
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].iteration, b[k].iteration) << "iter " << k;
    EXPECT_EQ(a[k].lambda, b[k].lambda) << "lambda, iter " << k;
    EXPECT_EQ(a[k].phi_lower, b[k].phi_lower) << "phi_lower, iter " << k;
    EXPECT_EQ(a[k].phi_upper, b[k].phi_upper) << "phi_upper, iter " << k;
    EXPECT_EQ(a[k].pi, b[k].pi) << "pi, iter " << k;
    EXPECT_EQ(a[k].lagrangian, b[k].lagrangian) << "lagrangian, iter " << k;
    EXPECT_EQ(a[k].overflow_ratio, b[k].overflow_ratio)
        << "overflow, iter " << k;
    EXPECT_EQ(a[k].grid_bins, b[k].grid_bins) << "grid, iter " << k;
  }
}

void run_and_compare(const Netlist& nl, ComplxConfig cfg) {
  ThreadGuard guard;

  cfg.threads = 1;
  const PlaceResult serial = ComplxPlacer(nl, cfg).place();

  cfg.threads = 8;  // oversubscribes small hosts on purpose — must not matter
  const PlaceResult parallel = ComplxPlacer(nl, cfg).place();

  EXPECT_EQ(serial.iterations, parallel.iterations);
  EXPECT_EQ(serial.returned.lambda, parallel.returned.lambda);
  EXPECT_EQ(serial.returned.overflow_ratio, parallel.returned.overflow_ratio);
  testing::expect_placements_bitwise_equal(serial.lower_bound,
                                           parallel.lower_bound);
  testing::expect_placements_bitwise_equal(serial.anchors, parallel.anchors);
  expect_traces_identical(serial.trace, parallel.trace);
}

TEST(GoldenDeterminism, StandardCellDesign) {
  const Netlist nl = testing::small_circuit(7, 2000);
  ComplxConfig cfg;
  cfg.max_iterations = 30;
  run_and_compare(nl, cfg);
}

// --- downstream stages -----------------------------------------------------
// The placer's contract extends through legalization and analysis: the same
// global placement must legalize to the same rows and score the same slacks
// regardless of the thread count (and of how often the stage is re-run).

/// One global placement shared by the downstream-stage tests.
const PlaceResult& shared_gp() {
  static const PlaceResult r = [] {
    ThreadGuard guard;
    set_global_threads(1);
    ComplxConfig cfg;
    cfg.threads = 1;
    cfg.max_iterations = 20;
    return ComplxPlacer(testing::small_circuit(11, 1200, 1), cfg).place();
  }();
  return r;
}

template <typename Legalizer>
void expect_legalizer_thread_invariant() {
  const Netlist nl = testing::small_circuit(11, 1200, 1);
  const PlaceResult& gp = shared_gp();
  ThreadGuard guard;

  set_global_threads(1);
  Placement serial = gp.anchors;
  const LegalizeResult r1 = Legalizer(nl).legalize(serial);

  set_global_threads(8);
  Placement parallel = gp.anchors;
  const LegalizeResult r8 = Legalizer(nl).legalize(parallel);

  EXPECT_EQ(r1.placed, r8.placed);
  EXPECT_EQ(r1.total_displacement, r8.total_displacement);
  testing::expect_placements_bitwise_equal(serial, parallel);

  // Re-running the same stage must also be a pure function of its input.
  set_global_threads(8);
  Placement again = gp.anchors;
  Legalizer(nl).legalize(again);
  testing::expect_placements_bitwise_equal(parallel, again);
}

TEST(GoldenDeterminism, TetrisLegalizerThreadInvariant) {
  expect_legalizer_thread_invariant<TetrisLegalizer>();
}

TEST(GoldenDeterminism, AbacusLegalizerThreadInvariant) {
  expect_legalizer_thread_invariant<AbacusLegalizer>();
}

TEST(GoldenDeterminism, StaticTimingThreadInvariant) {
  const Netlist nl = testing::small_circuit(11, 1200, 1);
  const PlaceResult& gp = shared_gp();
  const std::vector<char> regs = choose_registers(nl, 0.1, 3);
  const TimingGraph graph(nl, regs, TimingOptions{});
  ThreadGuard guard;

  set_global_threads(1);
  const TimingReport a = graph.analyze(gp.anchors);
  set_global_threads(8);
  const TimingReport b = graph.analyze(gp.anchors);

  EXPECT_EQ(a.worst_slack, b.worst_slack);
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.worst_endpoint, b.worst_endpoint);
  EXPECT_EQ(a.violations, b.violations);
  testing::expect_vec_bitwise_equal(a.arrival, b.arrival, "arrival times");
  testing::expect_vec_bitwise_equal(a.required, b.required, "required times");
  testing::expect_vec_bitwise_equal(a.slack, b.slack, "slacks");
}

// --- QP workspace ----------------------------------------------------------
// Full-run proof that the iteration-persistent QP workspace (CSR matrix,
// build scratch and PCG scratch reused every iteration) leaves nothing
// behind between iterations that depends on the thread count: the run is
// bitwise identical at 1 and 8 threads, through every B2B topology change.
TEST(GoldenDeterminism, QpWorkspaceThreadCountBitwiseInvariant) {
  const Netlist nl = testing::small_circuit(17, 1500);
  ComplxConfig base;
  base.max_iterations = 25;
  ThreadGuard guard;

  std::vector<PlaceResult> results;
  for (const int threads : {1, 8}) {
    ComplxConfig cfg = base;
    cfg.threads = threads;
    results.push_back(ComplxPlacer(nl, cfg).place());
  }

  EXPECT_EQ(results[0].iterations, results[1].iterations);
  EXPECT_EQ(results[0].returned.lambda, results[1].returned.lambda);
  testing::expect_placements_bitwise_equal(results[0].lower_bound,
                                           results[1].lower_bound);
  testing::expect_placements_bitwise_equal(results[0].anchors,
                                           results[1].anchors);
  expect_traces_identical(results[0].trace, results[1].trace);
}

// --- projection path -------------------------------------------------------
// The feasibility projection spreads whole regions concurrently (chunk=1
// parallel_for over disjoint per-region mote lists). The result must be
// bitwise identical at any thread count.
TEST(GoldenDeterminism, ProjectionThreadCountBitwiseInvariant) {
  const Netlist nl = testing::small_circuit(19, 1500, /*movable_macros=*/1);
  Placement p = nl.snapshot();
  const Point c = nl.core().center();
  for (CellId id : nl.movable_cells()) {
    p.x[id] = c.x;
    p.y[id] = c.y;
  }
  ThreadGuard guard;
  std::vector<ProjectionResult> results;
  for (const int threads : {1, 2, 8}) {
    set_global_threads(static_cast<size_t>(threads));
    LookAheadLegalizer lal(nl, {});
    results.push_back(lal.project(p));
  }
  for (size_t k = 1; k < results.size(); ++k) {
    EXPECT_EQ(results[0].num_regions, results[k].num_regions) << "run " << k;
    EXPECT_EQ(results[0].displacement_l1, results[k].displacement_l1)
        << "run " << k;
    EXPECT_EQ(results[0].input_overflow_ratio,
              results[k].input_overflow_ratio)
        << "run " << k;
    testing::expect_placements_bitwise_equal(results[0].anchors,
                                             results[k].anchors);
  }
}

// Regression for the double-spread bug: a mote whose center sits exactly on
// the boundary shared by two regions satisfies the inclusive Rect::contains
// for both. The historical gather loop enrolled it in BOTH per-region lists,
// so the second region's spread consumed coordinates the first had already
// rewritten (and made concurrent region spreading a data race). The fix —
// exclusive first-region-wins ownership — must spread each mote exactly
// once, bitwise identically at any thread count.
TEST(GoldenDeterminism, BoundaryMotesSpreadExactlyOnce) {
  Netlist nl;
  Cell d;
  d.width = 1;
  d.height = 1;
  nl.add_cell(d, "dummy");
  nl.set_core({0, 0, 100, 100});
  nl.finalize();

  // Regions meeting at x=50 (a 10x10-grid bin edge, exactly representable).
  const std::vector<Rect> regions = {{0, 0, 50, 100}, {50, 0, 100, 100}};
  const auto make_motes = [] {
    std::vector<Mote> motes;
    Rng rng(97);
    for (size_t k = 0; k < 60; ++k) {
      Mote m;
      m.x = (k % 2 == 0) ? rng.uniform(40.0, 49.5) : rng.uniform(50.5, 60.0);
      m.y = rng.uniform(5.0, 95.0);
      m.width = 4.0;
      m.height = 4.0;
      m.owner = static_cast<CellId>(k);
      motes.push_back(m);
    }
    for (const double y : {20.0, 50.0, 80.0}) {
      Mote m;
      m.x = 50.0;  // exactly on the shared boundary
      m.y = y;
      m.width = 4.0;
      m.height = 4.0;
      m.owner = static_cast<CellId>(motes.size());
      motes.push_back(m);
    }
    return motes;
  };

  const auto build_grid = [&](const std::vector<Mote>& motes) {
    DensityGrid g(nl, 10, 10);
    std::vector<Rect> rects;
    for (const Mote& m : motes) rects.push_back(m.bounds());
    g.build_from_rects(rects);
    return g;
  };

  // 1. Demonstrate the old behaviour: the inclusive gather double-enrolls
  //    every boundary mote, and the second spread moves it AGAIN after the
  //    first already placed it.
  {
    std::vector<Mote> motes = make_motes();
    const DensityGrid grid = build_grid(motes);
    std::vector<std::vector<Mote*>> gathered(regions.size());
    for (Mote& m : motes)
      for (size_t r = 0; r < regions.size(); ++r)
        if (regions[r].contains(Point{m.x, m.y})) gathered[r].push_back(&m);
    size_t double_enrolled = 0;
    for (const Mote& m : motes) {
      size_t hits = 0;
      for (const auto& list : gathered)
        hits += static_cast<size_t>(
            std::count(list.begin(), list.end(), &m));
      if (hits == 2) ++double_enrolled;
    }
    ASSERT_EQ(double_enrolled, 3u) << "fixture lost its boundary motes";

    Spreader spreader(grid, SpreaderOptions{});
    Mote* const boundary = gathered[0].back();  // one of the x=50 motes
    ASSERT_EQ(boundary->x, 50.0);
    spreader.spread(regions[0], gathered[0]);
    const Point after_first{boundary->x, boundary->y};
    spreader.spread(regions[1], gathered[1]);
    EXPECT_TRUE(boundary->x != after_first.x || boundary->y != after_first.y)
        << "double-enrolled mote was expected to be spread twice";
  }

  // 2. The fixed path: exclusive ownership, disjoint lists, and bitwise
  //    thread invariance of the concurrent per-region spread.
  std::vector<std::vector<Mote>> spread_results;
  for (const int threads : {1, 2, 8}) {
    ThreadGuard guard;
    set_global_threads(static_cast<size_t>(threads));
    std::vector<Mote> motes = make_motes();
    const DensityGrid grid = build_grid(motes);
    const std::vector<size_t> owner = assign_motes_to_regions(regions, motes);
    std::vector<std::vector<Mote*>> per_region(regions.size());
    size_t owned = 0;
    for (size_t k = 0; k < motes.size(); ++k) {
      ASSERT_NE(owner[k], kNoSpreadRegion) << "mote " << k;
      per_region[owner[k]].push_back(&motes[k]);
      ++owned;
    }
    EXPECT_EQ(per_region[0].size() + per_region[1].size(), owned)
        << "per-region lists must partition the motes";
    for (size_t k = 0; k < motes.size(); ++k) {
      if (motes[k].x == 50.0) {
        EXPECT_EQ(owner[k], 0u) << "boundary mote " << k
                                << " must go to the first region";
      }
    }

    Spreader spreader(grid, SpreaderOptions{});
    parallel_for(
        regions.size(),
        [&](size_t begin, size_t end) {
          for (size_t r = begin; r < end; ++r)
            spreader.spread(regions[r], per_region[r]);
        },
        /*chunk=*/1);
    spread_results.push_back(std::move(motes));
  }
  for (size_t run = 1; run < spread_results.size(); ++run) {
    ASSERT_EQ(spread_results[0].size(), spread_results[run].size());
    for (size_t k = 0; k < spread_results[0].size(); ++k) {
      EXPECT_EQ(spread_results[0][k].x, spread_results[run][k].x)
          << "run " << run << " mote " << k;
      EXPECT_EQ(spread_results[0][k].y, spread_results[run][k].y)
          << "run " << run << " mote " << k;
    }
  }
}

// --- known-optimum fleet ---------------------------------------------------
// The quality gate (scripts/quality_gate.py) treats paired ratio differences
// as noise-free: a no-op change must produce exact ties. That only holds if
// a fleet record — generation, placement, legalization, detailed placement,
// scoring — is bitwise identical at any thread count. wall_s is excluded by
// contract via record_timing=false (the one nondeterministic field).
TEST(GoldenDeterminism, FleetRecordThreadInvariant) {
  PekoParams params;
  params.num_cells = 256;
  params.utilization = 0.7;
  params.num_fixed_macros = 2;
  params.seed = 31;
  ThreadGuard guard;

  std::vector<FleetRecord> records;
  for (const size_t threads : {1u, 2u, 8u}) {
    FleetRunOptions opts;
    opts.max_iterations = 20;
    opts.threads = threads;
    opts.record_timing = false;
    set_global_threads(threads);
    records.push_back(run_fleet_design(params, opts));
  }
  const FleetRecord& a = records[0];
  EXPECT_TRUE(a.legal);
  EXPECT_GE(a.ratio, 1.0);
  for (size_t k = 1; k < records.size(); ++k) {
    const FleetRecord& b = records[k];
    EXPECT_EQ(a.name, b.name) << "run " << k;
    EXPECT_EQ(a.seed, b.seed) << "run " << k;
    EXPECT_EQ(a.cells, b.cells) << "run " << k;
    EXPECT_EQ(a.movable, b.movable) << "run " << k;
    EXPECT_EQ(a.nets, b.nets) << "run " << k;
    EXPECT_EQ(a.macros, b.macros) << "run " << k;
    EXPECT_EQ(a.utilization, b.utilization) << "run " << k;
    EXPECT_EQ(a.optimum_hpwl, b.optimum_hpwl) << "run " << k;
    EXPECT_EQ(a.hpwl, b.hpwl) << "run " << k;
    EXPECT_EQ(a.ratio, b.ratio) << "run " << k;
    EXPECT_EQ(a.overflow_percent, b.overflow_percent) << "run " << k;
    EXPECT_EQ(a.legal, b.legal) << "run " << k;
    EXPECT_EQ(a.iterations, b.iterations) << "run " << k;
    EXPECT_EQ(a.stop, b.stop) << "run " << k;
    EXPECT_EQ(a.recoveries, b.recoveries) << "run " << k;
    EXPECT_EQ(a.wall_s, 0.0);
    EXPECT_EQ(b.wall_s, 0.0) << "run " << k;
  }
}

TEST(GoldenDeterminism, MacroDesignWithRoutability) {
  // Movable macros exercise the shredder/density rect path; routability
  // exercises the parallel RUDY build feeding inflation back into P_C.
  const Netlist nl = testing::small_circuit(13, 1500, /*movable_macros=*/2,
                                            /*target_density=*/0.8);
  ComplxConfig cfg;
  cfg.max_iterations = 25;
  cfg.routability.enabled = true;
  cfg.routability.period = 3;
  run_and_compare(nl, cfg);
}

TEST(GoldenDeterminism, CoarsenThreadInvariant) {
  // coarsen() must produce byte-identical coarse netlists at any thread
  // count: the seeded visit order and the dense-scratch affinity scan are
  // its only orderings, and neither may depend on the parallel runtime.
  // (Audit notes: the matching pass uses a dense per-cell scratch instead
  // of a hash map and breaks affinity ties to the smallest id, so no D1
  // iteration-order hazard; the net rebuild walks nets in id order.)
  ThreadGuard guard;
  const Netlist fine = testing::small_circuit(17, 2000, /*movable_macros=*/1);
  ClusterOptions copts;
  copts.seed = 99;

  std::vector<CoarseLevel> levels;
  for (const size_t threads : {1u, 2u, 8u}) {
    set_global_threads(threads);
    levels.push_back(coarsen(fine, copts));
  }
  const Netlist& a = levels[0].netlist;
  for (size_t k = 1; k < levels.size(); ++k) {
    const Netlist& b = levels[k].netlist;
    ASSERT_EQ(a.num_cells(), b.num_cells()) << "run " << k;
    ASSERT_EQ(a.num_nets(), b.num_nets()) << "run " << k;
    ASSERT_EQ(a.num_pins(), b.num_pins()) << "run " << k;
    EXPECT_EQ(levels[0].fine_to_coarse, levels[k].fine_to_coarse)
        << "run " << k;
    for (CellId i = 0; i < a.num_cells(); ++i) {
      EXPECT_EQ(testing::bits(a.cell(i).x), testing::bits(b.cell(i).x)) << i;
      EXPECT_EQ(testing::bits(a.cell(i).y), testing::bits(b.cell(i).y)) << i;
      EXPECT_EQ(testing::bits(a.cell(i).width), testing::bits(b.cell(i).width))
          << i;
      EXPECT_EQ(a.cell(i).kind, b.cell(i).kind) << i;
      EXPECT_EQ(a.cell_name(i), b.cell_name(i)) << i;
    }
    for (NetId e = 0; e < a.num_nets(); ++e) {
      EXPECT_EQ(a.net(e).first_pin, b.net(e).first_pin) << e;
      EXPECT_EQ(a.net(e).num_pins, b.net(e).num_pins) << e;
      EXPECT_EQ(testing::bits(a.net(e).weight), testing::bits(b.net(e).weight))
          << e;
    }
    for (PinId q = 0; q < a.num_pins(); ++q)
      EXPECT_EQ(a.pin(q).cell, b.pin(q).cell) << q;
  }
}

}  // namespace
}  // namespace complx
