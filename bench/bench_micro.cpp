// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// sparse CG solve, B2B model construction, HPWL evaluation, density-grid
// build, feasibility projection, and legalization. These back the S3
// near-linear-runtime claim at the kernel level.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "bookshelf/reader.h"
#include "bookshelf/writer.h"
#include "core/placer.h"
#include "density/grid.h"
#include "density/penalty.h"
#include "gen/generator.h"
#include "legal/tetris.h"
#include "linalg/sparse.h"
#include "projection/lal.h"
#include "projection/spreader.h"
#include "qp/solver.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "wl/hpwl.h"
#include "wl/incremental.h"

namespace complx {
namespace {

Netlist make_circuit(size_t cells) {
  GenParams prm;
  prm.name = "micro";
  prm.num_cells = cells;
  prm.seed = 4242;
  prm.utilization = 0.65;
  return generate_circuit(prm);
}

void BM_Hpwl(benchmark::State& state) {
  const Netlist nl = make_circuit(static_cast<size_t>(state.range(0)));
  const Placement p = nl.snapshot();
  for (auto _ : state) benchmark::DoNotOptimize(hpwl(nl, p));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_pins()));
}
BENCHMARK(BM_Hpwl)->Arg(2000)->Arg(8000)->Arg(32000);

/// Freezes every movable cell whose centre lies outside a centred window
/// covering `fraction` of the core area, the way eco_replace does (kind
/// flip + refinalize).
void freeze_outside_window(Netlist& nl, double fraction) {
  const Rect& core = nl.core();
  const double s = std::sqrt(fraction) / 2.0;
  const double cx = (core.xl + core.xh) / 2.0, cy = (core.yl + core.yh) / 2.0;
  const double hw = s * (core.xh - core.xl), hh = s * (core.yh - core.yl);
  const Rect window{cx - hw, cy - hh, cx + hw, cy + hh};
  const Placement p = nl.snapshot();
  for (CellId id : nl.movable_cells())
    if (!window.contains(Point{p.x[id], p.y[id]}))
      nl.cell(id).kind = CellKind::Fixed;
  nl.refinalize();
}

/// Args: cells, ECO-frozen (1: only a window of 10% of the core stays
/// movable and the build takes VarMap's live-net list, as an ECO primal
/// step does).
void BM_B2bBuild(benchmark::State& state) {
  Netlist nl = make_circuit(static_cast<size_t>(state.range(0)));
  if (state.range(1) != 0) freeze_outside_window(nl, 0.10);
  const VarMap vars(nl);
  const Placement p = nl.snapshot();
  std::vector<PinSpring> springs;
  for (auto _ : state) {
    build_b2b(nl, p, Axis::X, {}, springs, vars.net_list());
    benchmark::DoNotOptimize(springs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_pins()));
  state.counters["springs"] = static_cast<double>(springs.size());
}
BENCHMARK(BM_B2bBuild)
    ->Args({2000, 0})
    ->Args({8000, 0})
    ->Args({32000, 0})
    ->Args({20000, 0})
    ->Args({20000, 1});

void BM_QpSolve(benchmark::State& state) {
  // One primal step (B2B, stamping, CSR build, PCG on both axes) through
  // the placer's iteration-persistent workspace.
  const Netlist nl = make_circuit(static_cast<size_t>(state.range(0)));
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  QpOptions opts;
  opts.b2b.min_separation = nl.average_movable_width();
  QpWorkspace ws;
  double assembly_s = 0.0, solve_s = 0.0;
  for (auto _ : state) {
    const QpIterationResult r =
        solve_qp_iteration(nl, vars, p, nullptr, opts, ws);
    assembly_s += r.assembly_s;
    solve_s += r.solve_s;
  }
  state.counters["assembly_s"] = assembly_s;
  state.counters["solve_s"] = solve_s;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_movable()));
}
BENCHMARK(BM_QpSolve)->Arg(2000)->Arg(8000)->Arg(32000)
    ->Unit(benchmark::kMillisecond);

/// The x-axis B2B system of a generated design at its initial placement:
/// the matrix and right-hand side of a real primal step.
CsrMatrix placement_system(const Netlist& nl, Vec* rhs = nullptr) {
  const VarMap vars(nl);
  const Placement snap = nl.snapshot();
  SystemBuilder builder(nl, vars, Axis::X, snap);
  std::vector<PinSpring> springs;
  build_b2b(nl, snap, Axis::X, {}, springs);
  builder.add_pin_springs(springs);
  if (rhs) *rhs = builder.rhs();
  return builder.build_matrix();
}

void BM_Pcg(benchmark::State& state) {
  // 50 PCG iterations on warm buffers (the tolerance is never met), so the
  // time per call is the loop's cost alone: SpMV and the vector passes.
  const Netlist nl = make_circuit(static_cast<size_t>(state.range(0)));
  Vec rhs;
  const CsrMatrix A = placement_system(nl, &rhs);
  CgOptions opts;
  opts.rel_tolerance = 1e-30;
  opts.max_iterations = 50;
  CgWorkspace ws;
  Vec x;
  for (auto _ : state) {
    x.assign(A.dim(), 0.0);
    benchmark::DoNotOptimize(solve_pcg(A, rhs, x, opts, ws));
  }
  state.counters["nnz"] = static_cast<double>(A.nnz());
  state.SetItemsProcessed(state.iterations() * 50 *
                          static_cast<int64_t>(A.nnz()));
}
BENCHMARK(BM_Pcg)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_CsrAssembly(benchmark::State& state) {
  // Per-axis system build of the primal step on warm buffers: stamp a
  // system and build its CSR matrix. Range 0 is the variable count. Range
  // 1 picks the shape: 0 is a flat placement (chain, 2n random springs and
  // an anchor diagonal, ~8 nnz per variable); 1 is a coarse multilevel
  // level (20 springs per variable, each to one of the next 8 variables,
  // so most springs repeat an earlier pair and rows are long).
  const size_t n = static_cast<size_t>(state.range(0));
  const bool coarse = state.range(1) == 1;
  struct Spring {
    size_t i, j;
    double w;
  };
  Rng rng(99);
  std::vector<Spring> springs;
  for (size_t i = 0; i + 1 < n; ++i)
    springs.push_back({i, i + 1, rng.uniform(0.5, 2.0)});
  for (size_t k = 0; k < (coarse ? 19 : 2) * n; ++k) {
    const size_t i = rng.uniform_index(n);
    const size_t j = coarse ? (i + 1 + rng.uniform_index(8)) % n
                            : rng.uniform_index(n);
    if (i != j) springs.push_back({i, j, rng.uniform(0.1, 1.0)});
  }
  Vec anchor(n);
  for (double& a : anchor) a = rng.uniform(0.01, 0.5);

  StampStore t(n);
  CsrMatrix m;
  CsrBuildScratch scratch;
  for (auto _ : state) {
    t.clear();
    for (const Spring& s : springs) t.add_spring(s.i, s.j, s.w);
    for (size_t i = 0; i < n; ++i) t.add_diag(i, anchor[i]);
    build_csr(t, m, scratch);
    benchmark::DoNotOptimize(m.val().data());
    benchmark::ClobberMemory();
  }
  state.counters["nnz"] = static_cast<double>(m.nnz());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(springs.size()));
}
BENCHMARK(BM_CsrAssembly)
    ->Args({2000, 0})
    ->Args({8000, 0})
    ->Args({32000, 0})
    ->Args({2000, 1})
    ->Args({6000, 1});

void BM_DensityBuild(benchmark::State& state) {
  const Netlist nl = make_circuit(8000);
  const Placement p = nl.snapshot();
  DensityGrid grid(nl, static_cast<size_t>(state.range(0)),
                   static_cast<size_t>(state.range(0)));
  for (auto _ : state) grid.build(p);
}
BENCHMARK(BM_DensityBuild)->Arg(16)->Arg(64)->Arg(256);

// --------------------------------------------------------------------------
// Density-penalty benchmarks: one bell-smoothed gradient evaluation per
// iteration, plus the cached overflow meter whose per-call grid rebuild was
// the historical hot-path regression. These back the docs/BENCHMARKS.md
// density table.

void BM_SpreadDensityGrad(benchmark::State& state) {
  const Netlist nl = make_circuit(static_cast<size_t>(state.range(0)));
  const Placement p = nl.snapshot();
  const DensityPenalty pen(nl, {});
  Vec gx, gy;
  for (auto _ : state)
    benchmark::DoNotOptimize(pen.value_and_grad(p, gx, gy));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_movable()));
}
BENCHMARK(BM_SpreadDensityGrad)->Arg(2000)->Arg(8000)->Arg(32000)
    ->Unit(benchmark::kMillisecond);

void BM_OverflowRatioCached(benchmark::State& state) {
  const Netlist nl = make_circuit(static_cast<size_t>(state.range(0)));
  const Placement p = nl.snapshot();
  const DensityPenalty pen(nl, {});
  pen.overflow_ratio(p);  // warm the cached grid
  for (auto _ : state)
    benchmark::DoNotOptimize(pen.overflow_ratio(p));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_movable()));
}
BENCHMARK(BM_OverflowRatioCached)->Arg(2000)->Arg(8000)->Arg(32000)
    ->Unit(benchmark::kMillisecond);

void BM_Projection(benchmark::State& state) {
  const Netlist nl = make_circuit(static_cast<size_t>(state.range(0)));
  // Pile placement: worst case for the projection.
  Placement p = nl.snapshot();
  const Point c = nl.core().center();
  for (CellId id : nl.movable_cells()) {
    p.x[id] = c.x;
    p.y[id] = c.y;
  }
  LookAheadLegalizer lal(nl, {});
  for (auto _ : state) benchmark::DoNotOptimize(lal.project(p));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_movable()));
}
BENCHMARK(BM_Projection)->Arg(2000)->Arg(8000)->Arg(32000)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Projection fast-path benchmarks: prefix-summed density queries, the cached
// fixed-cell capacity field, and the monotone terminal-spread sweep. These
// back the docs/BENCHMARKS.md projection table.
// --------------------------------------------------------------------------

std::vector<Rect> density_query_rects(const Rect& core, size_t n) {
  Rng rng(7);
  std::vector<Rect> rects;
  rects.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    const double x0 = rng.uniform(core.xl, core.xh);
    const double x1 = rng.uniform(core.xl, core.xh);
    const double y0 = rng.uniform(core.yl, core.yh);
    const double y1 = rng.uniform(core.yl, core.yh);
    rects.push_back({std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
                     std::max(y0, y1)});
  }
  return rects;
}

/// Summed-area-table query: O(1) per query regardless of resolution.
void BM_FreeAreaInPrefix(benchmark::State& state) {
  const Netlist nl = make_circuit(8000);
  const size_t bins = static_cast<size_t>(state.range(0));
  DensityGrid grid(nl, bins, bins);
  grid.build(nl.snapshot());
  const std::vector<Rect> rects = density_query_rects(nl.core(), 256);
  size_t k = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(grid.free_area_in(rects[k++ % rects.size()]));
}
BENCHMARK(BM_FreeAreaInPrefix)->Arg(16)->Arg(64)->Arg(256);

void run_project_bench(benchmark::State& state, bool cached) {
  const Netlist nl = make_circuit(static_cast<size_t>(state.range(0)));
  Placement p = nl.snapshot();
  const Point c = nl.core().center();
  for (CellId id : nl.movable_cells()) {
    p.x[id] = c.x;
    p.y[id] = c.y;
  }
  LookAheadLegalizer lal(nl, {});
  if (cached) lal.project(p);  // prime the capacity cache
  for (auto _ : state) {
    if (!cached) lal.invalidate_grid_cache();
    benchmark::DoNotOptimize(lal.project(p));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_movable()));
}

/// Every call rebuilds the fixed-cell blockage scan (pre-cache behaviour).
void BM_ProjectCold(benchmark::State& state) {
  run_project_bench(state, false);
}
BENCHMARK(BM_ProjectCold)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

/// Steady-state driver regime: same grid resolution as the previous call,
/// so only the movable deposit runs.
void BM_ProjectCachedCapacity(benchmark::State& state) {
  run_project_bench(state, true);
}
BENCHMARK(BM_ProjectCachedCapacity)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

void BM_TerminalSpreadSweep(benchmark::State& state) {
  // The terminal 1-D spread over n motes: one monotone sweep over the
  // region's capacity profile (was: a fresh 40-step free_area_in bisection
  // per mote). Fresh mote copies each iteration — spreading mutates them.
  const Netlist nl = make_circuit(2000);
  const size_t n = static_cast<size_t>(state.range(0));
  const Rect core = nl.core();
  const Point c = core.center();
  Rng rng(11);
  std::vector<Mote> motes(n);
  for (size_t k = 0; k < n; ++k) {
    motes[k].x = c.x + rng.uniform(-0.1, 0.1) * core.width();
    motes[k].y = c.y + rng.uniform(-0.1, 0.1) * core.height();
    motes[k].width = nl.average_movable_width();
    motes[k].height = nl.row_height();
    motes[k].owner = static_cast<CellId>(k);
  }
  DensityGrid grid(nl, 64, 64);
  std::vector<Rect> rects;
  rects.reserve(n);
  for (const Mote& m : motes) rects.push_back(m.bounds());
  grid.build_from_rects(rects);
  SpreaderOptions opts;
  opts.terminal_motes = static_cast<int>(n) + 1;  // force the terminal path
  Spreader spreader(grid, opts);
  for (auto _ : state) {
    std::vector<Mote> work = motes;
    std::vector<Mote*> ptrs;
    ptrs.reserve(n);
    for (Mote& m : work) ptrs.push_back(&m);
    spreader.spread(core, ptrs);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_TerminalSpreadSweep)->Arg(512)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_IncrementalVsNaiveMoveEval(benchmark::State& state) {
  // Cost of evaluating one candidate move: cached "before" + fresh "after"
  // vs two full recomputations (what a cache-less optimizer pays).
  const Netlist nl = make_circuit(8000);
  Placement p = nl.snapshot();
  IncrementalHpwl eval(nl, p);
  const auto& movable = nl.movable_cells();
  size_t k = 0;
  const bool cached = state.range(0) != 0;
  for (auto _ : state) {
    const CellId id = movable[k++ % movable.size()];
    const double old_x = p.x[id];
    double before, after;
    if (cached) {
      before = eval.incident_cost(id);
      p.x[id] = old_x + 5.0;
      after = eval.fresh_incident_cost(id);
    } else {
      before = eval.fresh_incident_cost(id);
      p.x[id] = old_x + 5.0;
      after = eval.fresh_incident_cost(id);
    }
    benchmark::DoNotOptimize(before + after);
    p.x[id] = old_x;  // reject
  }
}
BENCHMARK(BM_IncrementalVsNaiveMoveEval)
    ->Arg(0)  // naive
    ->Arg(1);  // cached

void BM_NetlistFinalize(benchmark::State& state) {
  // Generator + finalize (CSR build, movable indexing, stats). The arena
  // reservations in the generator make this allocation-light; this is the
  // per-level cost the multilevel V-cycle pays on every coarse netlist.
  const size_t cells = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    GenParams prm;
    prm.name = "micro";
    prm.num_cells = cells;
    prm.seed = 4242;
    prm.utilization = 0.65;
    Netlist nl = generate_circuit(prm);
    benchmark::DoNotOptimize(nl.num_pins());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(cells));
}
BENCHMARK(BM_NetlistFinalize)->Arg(2000)->Arg(8000)->Arg(32000)
    ->Unit(benchmark::kMillisecond);

void BM_BookshelfRead(benchmark::State& state) {
  // read_bookshelf of a 20k-cell generated design, written once to a
  // temporary directory. The "MB" rate counter is MB/s over all six files.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "complx_bench_bookshelf";
  fs::create_directories(dir);
  write_bookshelf(make_circuit(20000), dir.string(), "read");
  double bytes = 0.0;
  for (const char* ext : {".aux", ".nodes", ".nets", ".wts", ".pl", ".scl"})
    bytes += static_cast<double>(
        fs::file_size(dir / (std::string("read") + ext)));
  const std::string aux = (dir / "read.aux").string();
  for (auto _ : state) {
    const BookshelfDesign d = read_bookshelf(aux);
    benchmark::DoNotOptimize(d.netlist.num_pins());
  }
  state.counters["MB"] = benchmark::Counter(
      bytes / 1e6, benchmark::Counter::kIsIterationInvariantRate);
  fs::remove_all(dir);
}
BENCHMARK(BM_BookshelfRead)->Unit(benchmark::kMillisecond);

void BM_WritePl(benchmark::State& state) {
  // write_pl of a 20k-cell placement: format plus the atomic publish (temp
  // file, fsync, rename). The "MB" rate counter is MB/s of .pl text.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "complx_bench_write_pl";
  fs::create_directories(dir);
  const Netlist nl = make_circuit(20000);
  const Placement p = nl.snapshot();
  const std::string path = (dir / "write.pl").string();
  for (auto _ : state) write_pl(nl, p, path);
  state.counters["MB"] = benchmark::Counter(
      static_cast<double>(fs::file_size(path)) / 1e6,
      benchmark::Counter::kIsIterationInvariantRate);
  fs::remove_all(dir);
}
BENCHMARK(BM_WritePl)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Thread-scaling benchmarks (Arg = thread count) on a 100k-cell design.
// These back the docs/BENCHMARKS.md parallel-speedup table; results are
// bitwise identical across thread counts by construction (determinism
// tests), so these measure time only.
// --------------------------------------------------------------------------

const Netlist& big_circuit() {
  static const Netlist nl = make_circuit(100000);
  return nl;
}

void BM_SpMVThreads(benchmark::State& state) {
  const Netlist& nl = big_circuit();
  static const CsrMatrix A = placement_system(nl);
  set_global_threads(static_cast<size_t>(state.range(0)));
  Vec x(A.dim(), 1.0), y;
  for (auto _ : state) {
    A.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(A.nnz()));
  set_global_threads(0);
}
BENCHMARK(BM_SpMVThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_DensityBuildThreads(benchmark::State& state) {
  const Netlist& nl = big_circuit();
  const Placement p = nl.snapshot();
  DensityGrid grid(nl, 256, 256);
  set_global_threads(static_cast<size_t>(state.range(0)));
  for (auto _ : state) grid.build(p);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_movable()));
  set_global_threads(0);
}
BENCHMARK(BM_DensityBuildThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_HpwlThreads(benchmark::State& state) {
  const Netlist& nl = big_circuit();
  const Placement p = nl.snapshot();
  set_global_threads(static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(hpwl(nl, p));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_pins()));
  set_global_threads(0);
}
BENCHMARK(BM_HpwlThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_B2bBuildThreads(benchmark::State& state) {
  const Netlist& nl = big_circuit();
  const Placement p = nl.snapshot();
  set_global_threads(static_cast<size_t>(state.range(0)));
  std::vector<PinSpring> springs;
  for (auto _ : state) {
    build_b2b(nl, p, Axis::X, {}, springs);
    benchmark::DoNotOptimize(springs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_pins()));
  set_global_threads(0);
}
BENCHMARK(BM_B2bBuildThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_Legalize(benchmark::State& state) {
  const Netlist nl = make_circuit(static_cast<size_t>(state.range(0)));
  ComplxConfig cfg;
  cfg.max_iterations = 25;
  const Placement anchors = ComplxPlacer(nl, cfg).place().anchors;
  TetrisLegalizer legalizer(nl);
  for (auto _ : state) {
    Placement p = anchors;
    legalizer.legalize(p);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_movable()));
}
BENCHMARK(BM_Legalize)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace complx

BENCHMARK_MAIN();
