#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "gen/fleet.h"
#include "gen/generator.h"
#include "gen/peko.h"
#include "gen/suites.h"
#include "legal/tetris.h"
#include "util/parallel.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

TEST(Generator, DeterministicBySeed) {
  GenParams p;
  p.num_cells = 800;
  p.seed = 99;
  const Netlist a = generate_circuit(p);
  const Netlist b = generate_circuit(p);
  ASSERT_EQ(a.num_cells(), b.num_cells());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  ASSERT_EQ(a.num_pins(), b.num_pins());
  for (CellId i = 0; i < a.num_cells(); ++i) {
    EXPECT_DOUBLE_EQ(a.cell(i).x, b.cell(i).x);
    EXPECT_DOUBLE_EQ(a.cell(i).width, b.cell(i).width);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GenParams p;
  p.num_cells = 800;
  p.seed = 1;
  const Netlist a = generate_circuit(p);
  p.seed = 2;
  const Netlist b = generate_circuit(p);
  bool any_diff = a.num_nets() != b.num_nets();
  for (CellId i = 0; !any_diff && i < a.num_cells(); ++i)
    any_diff = a.cell(i).width != b.cell(i).width;
  EXPECT_TRUE(any_diff);
}

TEST(Generator, TooFewCellsThrows) {
  GenParams p;
  p.num_cells = 4;
  EXPECT_THROW(generate_circuit(p), std::invalid_argument);
}

struct GenSweep {
  size_t cells;
  size_t mov_macros;
  size_t fix_macros;
  double util;
  uint64_t seed;
};

class GeneratorSweep : public ::testing::TestWithParam<GenSweep> {
 protected:
  Netlist make() const {
    const GenSweep& s = GetParam();
    GenParams p;
    p.num_cells = s.cells;
    p.num_movable_macros = s.mov_macros;
    p.num_fixed_macros = s.fix_macros;
    p.utilization = s.util;
    p.seed = s.seed;
    return generate_circuit(p);
  }
};

TEST_P(GeneratorSweep, CellCountsMatch) {
  const Netlist nl = make();
  const GenSweep& s = GetParam();
  EXPECT_EQ(nl.num_movable(), s.cells + s.mov_macros);
  size_t fixed = 0, macros = 0;
  for (const Cell& c : nl.cells()) {
    if (!c.movable()) ++fixed;
    if (c.is_macro()) ++macros;
  }
  EXPECT_EQ(macros, s.mov_macros);
  EXPECT_GE(fixed, s.fix_macros);  // + pads
}

TEST_P(GeneratorSweep, UtilizationBudgetHolds) {
  const Netlist nl = make();
  const double used = nl.movable_area() + nl.fixed_area_in_core();
  const double util = used / nl.core().area();
  // Core sizing targets the requested utilization from above.
  EXPECT_LE(util, GetParam().util + 0.02);
  EXPECT_GE(util, GetParam().util - 0.15);
}

TEST_P(GeneratorSweep, NetDegreesAreRealistic) {
  const Netlist nl = make();
  size_t small = 0;
  for (const Net& n : nl.nets()) {
    EXPECT_GE(n.num_pins, 2u);
    if (n.num_pins <= 3) ++small;
  }
  EXPECT_GT(static_cast<double>(small) / static_cast<double>(nl.num_nets()),
            0.5);
}

TEST_P(GeneratorSweep, PadsOutsideCore) {
  const Netlist nl = make();
  for (const Cell& c : nl.cells()) {
    if (c.movable() || c.width > 2 * nl.row_height()) continue;  // pads only
    EXPECT_FALSE(nl.core().contains(c.bounds().center()))
        << " pad should ring the core";
  }
}

TEST_P(GeneratorSweep, MovableCellsStartInsideCore) {
  const Netlist nl = make();
  for (CellId id : nl.movable_cells()) {
    EXPECT_TRUE(nl.core().contains(Point{nl.cell(id).cx(), nl.cell(id).cy()}))
        << nl.cell_name(id);
  }
}

TEST_P(GeneratorSweep, PinsReferenceValidCellsWithBoundedOffsets) {
  const Netlist nl = make();
  for (PinId k = 0; k < nl.num_pins(); ++k) {
    const Pin& p = nl.pin(k);
    ASSERT_LT(p.cell, nl.num_cells());
    const Cell& c = nl.cell(p.cell);
    EXPECT_LE(std::abs(p.dx), c.width / 2.0 + 1e-9);
    EXPECT_LE(std::abs(p.dy), c.height / 2.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GeneratorSweep,
    ::testing::Values(GenSweep{500, 0, 0, 0.7, 10},
                      GenSweep{2000, 0, 0, 0.6, 11},
                      GenSweep{2000, 4, 2, 0.5, 12},
                      GenSweep{5000, 0, 8, 0.65, 13},
                      GenSweep{1000, 8, 0, 0.4, 14}));

// ---------------------------------------------------------------- suites --

TEST(Suites, Ispd2005HasEightDesignsWithMonotoneNames) {
  const auto suite = ispd2005_suite(100);
  ASSERT_EQ(suite.size(), 8u);
  EXPECT_EQ(suite[0].paper_name, "ADAPTEC1");
  EXPECT_EQ(suite[7].paper_name, "BIGBLUE4");
  for (const SuiteEntry& e : suite) {
    EXPECT_GE(e.params.num_cells, 1000u);
    EXPECT_DOUBLE_EQ(e.params.target_density, 1.0);
  }
  // Size progression mirrors the contest.
  EXPECT_GT(suite[7].params.num_cells, suite[0].params.num_cells);
}

TEST(Suites, Ispd2006CarriesTargetDensitiesAndMacros) {
  const auto suite = ispd2006_suite(100);
  ASSERT_EQ(suite.size(), 8u);
  for (const SuiteEntry& e : suite) {
    EXPECT_GT(e.params.num_movable_macros, 0u);
    EXPECT_LT(e.params.target_density, 1.0);
  }
  EXPECT_DOUBLE_EQ(suite[0].params.target_density, 0.50);  // ADAPTEC5
  EXPECT_DOUBLE_EQ(suite[2].params.target_density, 0.90);  // NEWBLUE2
}

TEST(Suites, ScaleDivisorScalesSizes) {
  const auto big = ispd2005_suite(20);
  const auto small = ispd2005_suite(200);
  for (size_t i = 0; i < big.size(); ++i)
    EXPECT_GE(big[i].params.num_cells, small[i].params.num_cells);
}

TEST(Suites, EnvOverrideParses) {
  setenv("COMPLX_BENCH_SCALE", "17", 1);
  EXPECT_EQ(bench_scale_from_env(40), 17u);
  setenv("COMPLX_BENCH_SCALE", " 17 ", 1);  // stray whitespace is fine
  EXPECT_EQ(bench_scale_from_env(40), 17u);
  unsetenv("COMPLX_BENCH_SCALE");
  EXPECT_EQ(bench_scale_from_env(40), 40u);
  setenv("COMPLX_BENCH_SCALE", "", 1);  // set-but-empty behaves like unset
  EXPECT_EQ(bench_scale_from_env(40), 40u);
  unsetenv("COMPLX_BENCH_SCALE");
}

// Regression: a set-but-invalid COMPLX_BENCH_SCALE used to fall back to the
// default silently, so a typo'd `COMPLX_BENCH_SCALE=O.5` benchmarked the
// wrong suite size without anyone noticing. It must throw instead.
TEST(Suites, EnvOverrideRejectsGarbage) {
  for (const char* bad : {"garbage", "0", "-3", "17x", "1.5", "+", "999999999999999999999"}) {
    setenv("COMPLX_BENCH_SCALE", bad, 1);
    EXPECT_THROW(bench_scale_from_env(40), std::runtime_error)
        << "value: " << bad;
  }
  unsetenv("COMPLX_BENCH_SCALE");
}

// ------------------------------------------------------------------ peko --
// Known-optimum construction (gen/peko.h). The whole point of the module is
// the certificate, so the tests demand *exact* equality: the closed form
// sums integer multiples of W, which doubles represent exactly.

TEST(Peko, NetOptimumClosedForm) {
  const double W = 12.0;
  EXPECT_EQ(peko_net_optimum(2, W), W);
  EXPECT_EQ(peko_net_optimum(3, W), 2 * W);
  EXPECT_EQ(peko_net_optimum(4, W), 2 * W);
  EXPECT_EQ(peko_net_optimum(9, W), 4 * W);
  EXPECT_EQ(peko_net_optimum(16, W), 6 * W);
  // Degrees without a clean provable bound are refused, not approximated.
  for (const int bad : {0, 1, 5, 6, 7, 8, 10, 15, 17})
    EXPECT_THROW(peko_net_optimum(bad, W), std::invalid_argument) << bad;
}

struct PekoSweep {
  size_t cells;
  double util;
  size_t macros;
  uint64_t seed;
};

class PekoConstruction : public ::testing::TestWithParam<PekoSweep> {
 protected:
  PekoParams params() const {
    const PekoSweep& s = GetParam();
    PekoParams p;
    p.num_cells = s.cells;
    p.utilization = s.util;
    p.num_fixed_macros = s.macros;
    p.seed = s.seed;
    return p;
  }
};

TEST_P(PekoConstruction, ConstructedPlacementAchievesOptimumExactly) {
  const PekoDesign d = generate_peko(params());
  ASSERT_GT(d.optimum_hpwl, 0.0);
  // Bitwise, not approximate: the stored placement IS the certificate.
  EXPECT_EQ(stored_hpwl(d.netlist), d.optimum_hpwl);
  EXPECT_EQ(hpwl(d.netlist, d.netlist.snapshot()), d.optimum_hpwl);
}

TEST_P(PekoConstruction, ConstructedPlacementIsLegal) {
  const PekoDesign d = generate_peko(params());
  const Netlist& nl = d.netlist;
  EXPECT_TRUE(TetrisLegalizer::is_legal(nl, nl.snapshot()));
  // Every placeable cell (and macro) sits fully inside the core.
  for (const Cell& c : nl.cells()) {
    const Rect b = c.bounds();
    EXPECT_GE(b.xl, nl.core().xl - 1e-9);
    EXPECT_GE(b.yl, nl.core().yl - 1e-9);
    EXPECT_LE(b.xh, nl.core().xh + 1e-9);
    EXPECT_LE(b.yh, nl.core().yh + 1e-9);
  }
}

TEST_P(PekoConstruction, ShapeAndBookkeeping) {
  const PekoDesign d = generate_peko(params());
  const Netlist& nl = d.netlist;
  EXPECT_GE(d.cells, GetParam().cells);  // rounded up to full patches
  EXPECT_EQ(d.cells, d.patches * d.patch_side * d.patch_side);
  EXPECT_EQ(d.anchors, d.patches);  // one fixed anchor per patch
  EXPECT_EQ(nl.num_cells(), d.cells + d.macros_placed);
  EXPECT_EQ(nl.num_movable(), d.cells - d.anchors);
  EXPECT_LE(d.macros_placed, GetParam().macros);
  // Only the supported degrees appear (otherwise the certificate is void),
  // and every net has pins on distinct cells with zero offsets.
  const std::set<uint32_t> supported = {2, 3, 4, 9, 16};
  for (const Net& n : nl.nets())
    EXPECT_TRUE(supported.count(n.num_pins)) << "degree " << n.num_pins;
  for (PinId k = 0; k < nl.num_pins(); ++k) {
    EXPECT_EQ(nl.pin(k).dx, 0.0);
    EXPECT_EQ(nl.pin(k).dy, 0.0);
  }
}

TEST_P(PekoConstruction, DeterministicBySeed) {
  const PekoDesign a = generate_peko(params());
  const PekoDesign b = generate_peko(params());
  EXPECT_EQ(a.optimum_hpwl, b.optimum_hpwl);
  ASSERT_EQ(a.netlist.num_cells(), b.netlist.num_cells());
  ASSERT_EQ(a.netlist.num_nets(), b.netlist.num_nets());
  ASSERT_EQ(a.netlist.num_pins(), b.netlist.num_pins());
  for (CellId i = 0; i < a.netlist.num_cells(); ++i) {
    EXPECT_EQ(a.netlist.cell(i).x, b.netlist.cell(i).x) << i;
    EXPECT_EQ(a.netlist.cell(i).y, b.netlist.cell(i).y) << i;
    EXPECT_EQ(a.netlist.cell_name(i), b.netlist.cell_name(i)) << i;
  }
}

TEST_P(PekoConstruction, OptimumInvariantAcrossThreadCounts) {
  struct ThreadGuard {
    ~ThreadGuard() { set_global_threads(0); }
  } guard;
  double first = 0.0;
  for (const size_t threads : {1u, 2u, 8u}) {
    set_global_threads(threads);
    const PekoDesign d = generate_peko(params());
    if (first == 0.0) first = d.optimum_hpwl;
    EXPECT_EQ(d.optimum_hpwl, first) << threads << " threads";
    EXPECT_EQ(stored_hpwl(d.netlist), d.optimum_hpwl)
        << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PekoConstruction,
    ::testing::Values(PekoSweep{64, 0.55, 0, 1},
                      PekoSweep{256, 0.75, 2, 42},
                      PekoSweep{1000, 0.65, 0, 7},
                      PekoSweep{1024, 0.85, 4, 1234},
                      PekoSweep{300, 0.40, 1, 99}));

TEST(Peko, DifferentSeedsDiffer) {
  PekoParams p;
  p.num_cells = 256;
  p.seed = 1;
  const PekoDesign a = generate_peko(p);
  p.seed = 2;
  const PekoDesign b = generate_peko(p);
  // The seed drives the random window draws, so the pin lists must differ
  // even when the net count and the optimum sum happen to coincide.
  bool any_diff = a.netlist.num_pins() != b.netlist.num_pins();
  for (PinId k = 0; !any_diff && k < a.netlist.num_pins(); ++k)
    any_diff = a.netlist.pin(k).cell != b.netlist.pin(k).cell;
  EXPECT_TRUE(any_diff);
}

TEST(Peko, InvalidParamsThrow) {
  PekoParams p;
  p.num_cells = 2;
  EXPECT_THROW(generate_peko(p), std::invalid_argument);
  p = PekoParams{};
  p.utilization = 0.0;
  EXPECT_THROW(generate_peko(p), std::invalid_argument);
  p = PekoParams{};
  p.utilization = 0.97;
  EXPECT_THROW(generate_peko(p), std::invalid_argument);
}

TEST(Peko, AnchorsAreFixedAtOptimalPositions) {
  PekoParams p;
  p.num_cells = 256;
  p.seed = 5;
  const PekoDesign d = generate_peko(p);
  size_t fixed_cells = 0;
  for (CellId id = 0; id < d.netlist.num_cells(); ++id) {
    const Cell& c = d.netlist.cell(id);
    if (!c.movable() && !c.is_macro() && d.netlist.cell_name(id)[0] == 'c')
      ++fixed_cells;
  }
  EXPECT_EQ(fixed_cells, d.anchors);
  EXPECT_GT(d.anchors, 0u);
}

// Each fleet record ends with the global placement's stop reason and
// recovery count as plain scalars: record scanners read from `{"name": ` to
// the first `}`, so a record may hold no nested object.
TEST(Fleet, JsonRecordEndsWithStopAndRecoveries) {
  FleetRecord r;
  r.name = "d0";
  r.ratio = 1.5;
  r.stop = StopReason::RollbackCycle;
  r.recoveries = 2;
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "complx_fleet_record.json";
  write_fleet_run_json(path.string(), "label", "gate", FleetRunOptions{},
                       {r});
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);
  const std::string json = text.str();
  const size_t begin = json.find("{\"name\": ");
  ASSERT_NE(begin, std::string::npos);
  const std::string record = json.substr(begin, json.find('}', begin) - begin);
  const std::string tail = "\"stop\": \"rollback-cycle\", \"recoveries\": 2";
  ASSERT_GE(record.size(), tail.size());
  EXPECT_EQ(record.substr(record.size() - tail.size()), tail) << record;
}

}  // namespace
}  // namespace complx
