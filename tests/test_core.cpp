#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/placer.h"
#include "helpers.h"
#include "multilevel/mlplacer.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

ComplxConfig fast_config() {
  ComplxConfig cfg;
  cfg.max_iterations = 60;
  cfg.min_iterations = 5;
  return cfg;
}

TEST(ComplxPlacer, ConvergesOnSmallDesign) {
  Netlist nl = complx::testing::small_circuit(71, 1200);
  ComplxPlacer placer(nl, fast_config());
  const PlaceResult res = placer.place();
  EXPECT_GT(res.iterations, 3);
  EXPECT_LT(res.final_overflow, 0.25);
  EXPECT_FALSE(res.trace.empty());
}

TEST(ComplxPlacer, WeakDualityHoldsAlongTrace) {
  // Formula 7: Φ(iterate) <= Φ(anchors) at every iteration (the anchors are
  // C-feasible-ish, the iterate minimizes the relaxation).
  Netlist nl = complx::testing::small_circuit(72, 1000);
  ComplxPlacer placer(nl, fast_config());
  const PlaceResult res = placer.place();
  size_t holds = 0;
  for (const IterationStats& st : res.trace)
    if (st.phi_lower <= st.phi_upper * 1.02) ++holds;
  // Allow rare early-iteration exceptions; the bound must hold essentially
  // always (the paper's Figure-1-style behavior).
  EXPECT_GE(holds * 10, res.trace.size() * 9);
}

TEST(ComplxPlacer, LambdaIsMonotoneNonDecreasing) {
  Netlist nl = complx::testing::small_circuit(73, 800);
  ComplxPlacer placer(nl, fast_config());
  const PlaceResult res = placer.place();
  for (size_t k = 1; k < res.trace.size(); ++k)
    EXPECT_GE(res.trace[k].lambda, res.trace[k - 1].lambda * (1 - 1e-12));
}

TEST(ComplxPlacer, PiDecreasesOverall) {
  Netlist nl = complx::testing::small_circuit(74, 1000);
  ComplxPlacer placer(nl, fast_config());
  const PlaceResult res = placer.place();
  ASSERT_GE(res.trace.size(), 5u);
  EXPECT_LT(res.trace.back().pi, 0.5 * res.trace.front().pi);
}

TEST(ComplxPlacer, OverflowDecreases) {
  Netlist nl = complx::testing::small_circuit(75, 1000);
  ComplxPlacer placer(nl, fast_config());
  const PlaceResult res = placer.place();
  EXPECT_LT(res.trace.back().overflow_ratio,
            0.5 * res.trace.front().overflow_ratio + 0.05);
}

TEST(ComplxPlacer, AnchorsBeatRandomScatterHpwl) {
  Netlist nl = complx::testing::small_circuit(76, 1200);
  const double scatter_hpwl = hpwl(nl, nl.snapshot());
  ComplxPlacer placer(nl, fast_config());
  const PlaceResult res = placer.place();
  EXPECT_LT(hpwl(nl, res.anchors), 0.7 * scatter_hpwl);
}

TEST(ComplxPlacer, SimplModeRunsAndConverges) {
  Netlist nl = complx::testing::small_circuit(77, 1000);
  ComplxConfig cfg = ComplxConfig::simpl_mode();
  cfg.max_iterations = 80;
  ComplxPlacer placer(nl, cfg);
  const PlaceResult res = placer.place();
  EXPECT_LT(res.final_overflow, 0.25);
}

TEST(ComplxPlacer, FinalLambdaStaysSmall) {
  // Section S3: final λ values stay O(1) — they measure the per-cell force
  // balance, not problem size. (Our 2-pin-heavy synthetic nets put the
  // balance near 2; the paper's 4-pin-average contest nets sit below 1.)
  Netlist nl = complx::testing::small_circuit(78, 1500);
  ComplxPlacer placer(nl, fast_config());
  const PlaceResult res = placer.place();
  EXPECT_LT(res.final_lambda, 5.0);
  EXPECT_GT(res.final_lambda, 0.0);
}

TEST(ComplxPlacer, SelfConsistencyMostlyHolds) {
  // Section S2: the approximate projection is self-consistent in the vast
  // majority of checks, with inconsistencies concentrated in the early
  // (grid-refinement) iterations.
  Netlist nl = complx::testing::small_circuit(79, 1500);
  ComplxPlacer placer(nl, fast_config());
  const PlaceResult res = placer.place();
  ASSERT_GT(res.self_consistency.checked, 5u);
  ASSERT_GT(res.self_consistency.late_checked, 3u);
  EXPECT_LT(res.self_consistency.late_inconsistent_fraction(), 0.40);
}

TEST(ComplxPlacer, HandlesMovableMacrosAndDensityTarget) {
  Netlist nl =
      complx::testing::small_circuit(80, 1200, /*movable_macros=*/3,
                                     /*target_density=*/0.8);
  ComplxConfig cfg = fast_config();
  ComplxPlacer placer(nl, cfg);
  const PlaceResult res = placer.place();
  EXPECT_LT(res.final_overflow, 0.35);
  // Macros ended up inside the core.
  for (CellId id : nl.movable_cells()) {
    if (!nl.cell(id).is_macro()) continue;
    EXPECT_TRUE(nl.core().contains(
        Point{res.anchors.x[id], res.anchors.y[id]}));
  }
}

TEST(ComplxPlacer, CriticalityVectorValidated) {
  Netlist nl = complx::testing::small_circuit(81, 500);
  ComplxPlacer placer(nl, fast_config());
  EXPECT_THROW(placer.set_cell_criticality(Vec(3, 1.0)),
               std::invalid_argument);
  placer.set_cell_criticality(Vec(nl.num_cells(), 1.0));  // ok
}

TEST(ComplxPlacer, RejectsUnknownBackendName) {
  // Look-ahead legalization is the only projection; the config field only
  // survives for callers that still copy it, and anything but "spread" is
  // refused up front rather than silently placed with LAL.
  Netlist nl = complx::testing::small_circuit(83, 200);
  ComplxConfig cfg = fast_config();
  cfg.density_backend = "poisson";
  EXPECT_THROW(ComplxPlacer(nl, cfg), std::invalid_argument);
  cfg.density_backend = "";
  EXPECT_THROW(ComplxPlacer(nl, cfg), std::invalid_argument);
  cfg.density_backend = "spread";
  EXPECT_NO_THROW(ComplxPlacer(nl, cfg));
}

TEST(ComplxPlacer, PostProjectionHookRuns) {
  Netlist nl = complx::testing::small_circuit(82, 500);
  ComplxPlacer placer(nl, fast_config());
  int calls = 0;
  placer.set_post_projection_hook([&](Placement&) { ++calls; });
  placer.place();
  EXPECT_GT(calls, 3);
}

TEST(ComplxPlacer, TraceCsvRoundTrips) {
  Netlist nl = complx::testing::small_circuit(83, 500);
  ComplxConfig cfg = fast_config();
  cfg.max_iterations = 15;
  ComplxPlacer placer(nl, cfg);
  const PlaceResult res = placer.place();
  const std::string path =
      (std::filesystem::temp_directory_path() / "complx_trace.csv").string();
  write_trace_csv(path, res.trace);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("lambda"), std::string::npos);
  size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, res.trace.size());
  std::filesystem::remove(path);
}

TEST(ComplxPlacer, GapCriterionStopsEarlierThanOverflowOnly) {
  Netlist nl = complx::testing::small_circuit(84, 1200);
  ComplxConfig with_gap = fast_config();
  with_gap.use_gap_criterion = true;
  ComplxConfig no_gap = fast_config();
  no_gap.use_gap_criterion = false;
  const PlaceResult a = ComplxPlacer(nl, with_gap).place();
  const PlaceResult b = ComplxPlacer(nl, no_gap).place();
  EXPECT_LE(a.iterations, b.iterations + 1);
}

TEST(ComplxPlacer, LseModelInstantiationWorks) {
  // "Any interconnect model plugs in": run with the log-sum-exp Φ.
  Netlist nl = complx::testing::small_circuit(85, 400);
  ComplxConfig cfg = fast_config();
  cfg.use_lse = true;
  cfg.max_iterations = 25;
  ComplxPlacer placer(nl, cfg);
  const PlaceResult res = placer.place();
  const double scatter = hpwl(nl, nl.snapshot());
  EXPECT_LT(hpwl(nl, res.anchors), scatter);
  EXPECT_LT(res.final_overflow, 0.5);
}

// SolverStats counts one projection per trace row and two linear solves
// (x and y) per primal step, and every phase timer it sums has run.
void expect_solver_stats_count_every_step(const PlaceResult& res) {
  ASSERT_EQ(res.health.faults, 0u) << "the design must place without faults";
  const SolverStats& s = res.solver;
  EXPECT_EQ(s.projections, res.trace.size());
  EXPECT_EQ(s.solves % 2, 0u);
  EXPECT_GE(s.solves, 2u * static_cast<size_t>(res.iterations));
  EXPECT_GT(s.assembly_s, 0.0);
  EXPECT_GT(s.solve_s, 0.0);
  EXPECT_GT(s.proj_grid_build_s + s.proj_region_find_s + s.proj_spread_s +
                s.proj_readback_s,
            0.0);
}

TEST(Placer, SolverStatsCountEverySolveAndProjection) {
  Netlist nl = complx::testing::small_circuit(86, 3000);
  {
    SCOPED_TRACE("flat");
    expect_solver_stats_count_every_step(
        ComplxPlacer(nl, fast_config()).place());
  }
  {
    SCOPED_TRACE("multilevel");
    MultilevelConfig cfg;
    cfg.coarsest_cells = 1000;
    const MultilevelResult ml = MultilevelPlacer(nl, cfg).place();
    ASSERT_GE(ml.level_sizes.size(), 2u);
    expect_solver_stats_count_every_step(ml.place);
  }
}

}  // namespace
}  // namespace complx
