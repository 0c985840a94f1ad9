// The traced in-process run: the same calls the CLI makes for one workload,
// each wrapped in a span, plus the counters the layers already return.
#include <algorithm>
#include <cmath>
#include <filesystem>

#include "bookshelf/reader.h"
#include "bookshelf/writer.h"
#include "core/eco.h"
#include "core/placer.h"
#include "density/metric.h"
#include "dp/detailed.h"
#include "gen/fleet.h"
#include "legal/tetris.h"
#include "multilevel/auto.h"
#include "multilevel/cluster.h"
#include "multilevel/mlplacer.h"
#include "projection/lal.h"
#include "util/log.h"
#include "util/parallel.h"
#include "wl/b2b.h"
#include "wl/hpwl.h"
#include "workloads.h"

namespace bench {

namespace fs = std::filesystem;
using namespace complx;

namespace {

constexpr int kReplayRepeats = 5;
constexpr double kMB = 1024.0 * 1024.0;

/// Counters returned by the layers, summed over the flow.
struct Totals {
  size_t runs = 0;
  size_t converged = 0;
  size_t iterations = 0;
  size_t recoveries = 0;
  size_t faults = 0;
  SolverStats solver;
  std::vector<double> iter_ms;
  double pin_iterations = 0.0;  ///< sum of (iterations + 1) * pins
  size_t eco_dirty = 0;
  size_t eco_frozen = 0;
  size_t levels = 0;
  size_t coarsest_cells = 0;
  double netlist_mb = 0.0;
  double coarse_mb = 0.0;
  double read_mb = 0.0;
  size_t legal_placed = 0;
  size_t legal_failed = 0;
  double legal_displacement = 0.0;
  size_t dp_passes = 0;
  double dp_initial = 0.0;
  double dp_final = 0.0;

  void add(const PlaceResult& r, const Netlist& nl) {
    ++runs;
    if (r.stop == StopReason::Converged) ++converged;
    iterations += static_cast<size_t>(r.iterations);
    recoveries += static_cast<size_t>(r.recovered);
    faults += r.health.faults;
    const SolverStats& s = r.solver;
    solver.solves += s.solves;
    solver.total_cg_iterations += s.total_cg_iterations;
    solver.pattern_hits += s.pattern_hits;
    solver.pattern_misses += s.pattern_misses;
    solver.assembly_s += s.assembly_s;
    solver.solve_s += s.solve_s;
    solver.projections += s.projections;
    solver.proj_grid_build_s += s.proj_grid_build_s;
    solver.proj_region_find_s += s.proj_region_find_s;
    solver.proj_spread_s += s.proj_spread_s;
    solver.proj_readback_s += s.proj_readback_s;
    for (size_t i = 1; i < r.trace.size(); ++i)
      iter_ms.push_back(1e3 *
                        (r.trace[i].elapsed_s - r.trace[i - 1].elapsed_s));
    pin_iterations += static_cast<double>(r.iterations + 1) *
                      static_cast<double>(nl.num_pins());
  }
  void add(const LegalizeResult& r) {
    legal_placed += r.placed;
    legal_failed += r.failed;
    legal_displacement += r.total_displacement;
  }
  void add(const DetailedResult& r) {
    dp_passes += static_cast<size_t>(r.passes);
    dp_initial += r.initial_hpwl;
    dp_final += r.final_hpwl;
  }
  void saw_netlist(const Netlist& nl) {
    netlist_mb =
        std::max(netlist_mb, static_cast<double>(nl.memory_bytes()) / kMB);
  }
};

/// State of one traced flow.
struct Flow {
  Tracer tracer;
  Totals totals;
  TraceReport report;
  Netlist replay_nl;  ///< the last design of the flow ...
  Placement replay_p;  ///< ... at its final global-placement iterate
};

double input_mb(const Input& in) {
  double bytes = 0.0;
  for (const char* ext : {".aux", ".nodes", ".nets", ".wts", ".pl", ".scl"})
    bytes += static_cast<double>(fs::file_size(in.base + ext));
  return bytes / kMB;
}

/// MultilevelPlacer::place() (multilevel/mlplacer.cpp) with place_auto's
/// default MultilevelConfig, call for call, so that every level's
/// PlaceResult is visible. The run's final HPWL is checked bitwise against
/// complx_place's, which keeps the two in step.
Placement multilevel_place(Flow& f, const Netlist& nl,
                           const ComplxConfig& cfg) {
  Tracer& t = f.tracer;
  const MultilevelConfig ml;
  std::vector<CoarseLevel> levels;
  const Netlist* current = &nl;
  for (int l = 0; l < ml.max_levels; ++l) {
    if (current->num_movable() <= ml.coarsest_cells) break;
    ClusterOptions copts = ml.clustering;
    copts.seed += static_cast<uint64_t>(l);
    CoarseLevel next = traced(t, "multilevel.coarsen",
                              [&] { return coarsen(*current, copts); });
    if (next.netlist.num_cells() >= current->num_cells() * 95 / 100) break;
    levels.push_back(std::move(next));
    current = &levels.back().netlist;
  }
  f.totals.levels = levels.size();
  f.totals.coarsest_cells = current->num_cells();
  for (const CoarseLevel& l : levels)
    f.totals.coarse_mb += static_cast<double>(l.netlist.memory_bytes()) / kMB;

  PlaceResult r = traced(t, "core.place",
                         [&] { return ComplxPlacer(*current, cfg).place(); });
  f.totals.add(r, *current);
  Placement placement = std::move(r.anchors);
  for (size_t l = levels.size(); l-- > 0;) {
    const Netlist& fine = l == 0 ? nl : levels[l - 1].netlist;
    const Placement seeded = traced(t, "multilevel.interpolate", [&] {
      return interpolate(fine, levels[l].fine_to_coarse, placement);
    });
    ComplxConfig refine = cfg;
    refine.max_iterations = ml.refine_iterations;
    refine.min_iterations = std::min(4, ml.refine_iterations);
    PlaceResult rr = traced(t, "core.place", [&] {
      return ComplxPlacer(fine, refine).place_from(seeded);
    });
    f.totals.add(rr, fine);
    placement = std::move(rr.anchors);
  }
  return placement;
}

/// complx_place without --eco-window: read, global placement (flat or
/// multilevel), legalize, DP, evaluate, write.
void place_flow(Flow& f, const Input& in, const std::string& out_pl) {
  Tracer& t = f.tracer;
  BookshelfDesign d =
      traced(t, "bookshelf.read", [&] { return read_bookshelf(in.aux()); });
  Netlist& nl = d.netlist;
  f.totals.read_mb += input_mb(in);
  f.totals.saw_netlist(nl);

  const ComplxConfig cfg;  // complx_place's defaults
  Placement lower, anchors;
  if (in.kind == Kind::Flat) {
    PlaceResult gp =
        traced(t, "core.place", [&] { return place_auto(nl, cfg).place; });
    f.totals.add(gp, nl);
    lower = std::move(gp.lower_bound);
    anchors = std::move(gp.anchors);
  } else {
    anchors = traced(t, "multilevel.place",
                     [&] { return multilevel_place(f, nl, cfg); });
    lower = anchors;
  }
  // The CLI's global-placement summary line.
  traced(t, "wl.hpwl", [&] { return hpwl(nl, lower) + hpwl(nl, anchors); });

  Placement p = anchors;
  f.totals.add(traced(t, "legal.legalize",
                      [&] { return TetrisLegalizer(nl).legalize(p); }));
  f.totals.add(
      traced(t, "dp.refine", [&] { return DetailedPlacer(nl).refine(p); }));
  traced(t, "density.evaluate", [&] { return evaluate_scaled_hpwl(nl, p); });
  traced(t, "legal.check", [&] { return TetrisLegalizer::is_legal(nl, p); });
  traced(t, "bookshelf.write", [&] { write_pl(nl, p, out_pl); });
  f.report.outputs.push_back(out_pl);

  f.replay_p = std::move(lower);
  f.replay_nl = std::move(d.netlist);
}

/// complx_place --eco-window, once per window: read, re-place the window,
/// report HPWL, write.
void eco_flow(Flow& f, const Input& in, const std::string& job_dir) {
  Tracer& t = f.tracer;
  for (size_t k = 0; k < in.windows.size(); ++k) {
    const std::string out_pl =
        job_dir + "/trace_eco_" + std::to_string(k) + ".pl";
    traced(t, "job", [&] {
      BookshelfDesign d =
          traced(t, "bookshelf.read", [&] { return read_bookshelf(in.aux()); });
      Netlist& nl = d.netlist;
      f.totals.read_mb += input_mb(in);
      f.totals.saw_netlist(nl);
      EcoOptions eo;
      eo.window = in.windows[k];
      const EcoResult er =
          traced(t, "core.place", [&] { return eco_replace(nl, eo); });
      if (er.dirty_cells > 0) f.totals.add(er.place, nl);
      f.totals.eco_dirty += er.dirty_cells;
      f.totals.eco_frozen += er.frozen_cells;
      Placement after = nl.snapshot();
      traced(t, "wl.hpwl", [&] { return hpwl(nl, after); });
      traced(t, "bookshelf.write", [&] { write_pl(nl, after, out_pl); });
      f.report.outputs.push_back(out_pl);
      if (k + 1 == in.windows.size()) {
        f.replay_p = std::move(after);
        f.replay_nl = std::move(d.netlist);
      }
    });
  }
}

/// run_fleet_design() (gen/fleet.cpp) for every smoke design, with spans
/// around its calls; its HPWL is checked bitwise against complx_fleet's
/// records.
void fleet_flow(Flow& f, const Input& in) {
  Tracer& t = f.tracer;
  const FleetRunOptions fo;
  for (const PekoParams& params : in.fleet) {
    traced(t, "job", [&] {
      PekoDesign d =
          traced(t, "gen.peko", [&] { return generate_peko(params); });
      const Netlist& nl = d.netlist;
      f.totals.saw_netlist(nl);
      ComplxConfig cfg;
      cfg.max_iterations = fo.max_iterations;
      cfg.density_backend = fo.density_backend;
      cfg.threads = kThreads;
      PlaceResult gp = traced(t, "core.place",
                              [&] { return ComplxPlacer(nl, cfg).place(); });
      f.totals.add(gp, nl);
      Placement p = gp.anchors;
      f.totals.add(traced(t, "legal.legalize",
                          [&] { return TetrisLegalizer(nl).legalize(p); }));
      f.totals.add(
          traced(t, "dp.refine", [&] { return DetailedPlacer(nl).refine(p); }));
      f.report.hpwl.push_back(
          traced(t, "wl.hpwl", [&] { return hpwl(nl, p); }));
      traced(t, "density.evaluate",
             [&] { return evaluate_scaled_hpwl(nl, p); });
      traced(t, "legal.check",
             [&] { return TetrisLegalizer::is_legal(nl, p); });
      f.replay_p = std::move(gp.lower_bound);
      f.replay_nl = std::move(d.netlist);
    });
  }
}

/// Single kernels replayed on the flow's last design at its final iterate,
/// outside the flow's spans; medians over kReplayRepeats calls.
struct Replay {
  double b2b_ms = 0.0;
  double springs = 0.0;
  double whpwl_ms = 0.0;
  double project_ms = 0.0;
  double pins = 0.0;
};

Replay replay_kernels(const Netlist& nl, const Placement& p) {
  Replay r;
  r.pins = static_cast<double>(nl.num_pins());
  B2bOptions bo;  // as ComplxPlacer sets it up
  bo.min_separation = std::max(1.0, nl.average_movable_width());
  ProjectionOptions po;
  po.gamma = nl.target_density();
  LookAheadLegalizer lal(nl, po);
  lal.project(p);  // builds the cached capacity field, like the first call
  std::vector<PinSpring> springs;
  std::vector<double> b2b, wh, proj;
  for (int i = 0; i < kReplayRepeats; ++i) {
    double t0 = now_s();
    build_b2b(nl, p, Axis::X, bo, springs);
    b2b.push_back(1e3 * (now_s() - t0));
    t0 = now_s();
    volatile double sink = weighted_hpwl(nl, p);
    (void)sink;
    wh.push_back(1e3 * (now_s() - t0));
    t0 = now_s();
    lal.project(p);
    proj.push_back(1e3 * (now_s() - t0));
  }
  r.springs = static_cast<double>(springs.size());
  r.b2b_ms = summarize(b2b).median;
  r.whpwl_ms = summarize(wh).median;
  r.project_ms = summarize(proj).median;
  return r;
}

std::vector<Metric> layer_metrics(const Flow& f, const Replay& r,
                                  double flow_s, double untraced_wall_s) {
  const Tracer& t = f.tracer;
  const Totals& c = f.totals;
  const SolverStats& s = c.solver;
  std::vector<Metric> m;
  auto add = [&](const char* name, const char* unit, double v) {
    m.emplace_back(name, unit, v);
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  std::vector<double> job_s;
  double place_peak = 0.0;
  for (const Span& sp : t.spans()) {
    if (sp.name == "job") job_s.push_back(sp.duration_s());
    if (sp.parent == 0 && (sp.name == "job" || sp.name == "core.place" ||
                           sp.name == "multilevel.place"))
      place_peak = std::max(place_peak, sp.peak_rss_mb);
  }
  if (job_s.empty()) job_s.push_back(flow_s);

  const double place_s = t.total_s("core.place");
  const double proj_s = s.proj_grid_build_s + s.proj_region_find_s +
                        s.proj_spread_s + s.proj_readback_s;
  const double read_s = t.total_s("bookshelf.read");

  add("trace.flow_s", "s", flow_s);
  add("trace.overhead_pct", "%",
      100.0 * (ratio(flow_s, untraced_wall_s) - 1.0));
  add("bookshelf.read_s", "s", read_s);
  add("bookshelf.read_mb_per_s", "MB/s", ratio(c.read_mb, read_s));
  add("bookshelf.write_s", "s", t.total_s("bookshelf.write"));
  add("gen.peko_s", "s", t.total_s("gen.peko"));
  add("netlist.mb", "MB", c.netlist_mb);
  add("netlist.coarse_mb", "MB", c.coarse_mb);
  add("core.place_s", "s", place_s);
  add("core.converged_fraction", "fraction",
      ratio(static_cast<double>(c.converged), static_cast<double>(c.runs)));
  add("core.iterations", "count", static_cast<double>(c.iterations));
  add("core.iterations_mean", "count",
      ratio(static_cast<double>(c.iterations), static_cast<double>(c.runs)));
  add("core.recoveries", "count", static_cast<double>(c.recoveries));
  add("core.health_faults", "count", static_cast<double>(c.faults));
  add("core.iter_ms_p50", "ms", percentile(c.iter_ms, 0.5));
  add("core.iter_ms_p90", "ms", percentile(c.iter_ms, 0.9));
  add("core.loop_self_s", "s", place_s - s.assembly_s - s.solve_s - proj_s);
  add("core.place_peak_rss_mb", "MB", place_peak);
  // make_stats evaluates weighted HPWL twice per recorded iteration; the
  // replayed pass time scaled by pin count estimates what that costs.
  add("core.stats_hpwl_est_s", "s",
      2.0 * c.pin_iterations * ratio(r.whpwl_ms * 1e-3, r.pins));
  add("qp.assembly_s", "s", s.assembly_s);
  add("qp.solves", "count", static_cast<double>(s.solves));
  add("qp.pattern_hit_rate", "fraction",
      ratio(static_cast<double>(s.pattern_hits),
            static_cast<double>(s.pattern_hits + s.pattern_misses)));
  add("linalg.pcg_s", "s", s.solve_s);
  add("linalg.cg_iterations", "count",
      static_cast<double>(s.total_cg_iterations));
  add("linalg.cg_iters_per_solve", "count",
      ratio(static_cast<double>(s.total_cg_iterations),
            static_cast<double>(s.solves)));
  add("wl.b2b_build_ms", "ms", r.b2b_ms);
  add("wl.b2b_springs", "count", r.springs);
  add("wl.b2b_spring_mb", "MB", r.springs * sizeof(PinSpring) / kMB);
  add("wl.weighted_hpwl_ms", "ms", r.whpwl_ms);
  add("projection.calls", "count", static_cast<double>(s.projections));
  add("projection.grid_build_s", "s", s.proj_grid_build_s);
  add("projection.region_find_s", "s", s.proj_region_find_s);
  add("projection.spread_s", "s", s.proj_spread_s);
  add("projection.readback_s", "s", s.proj_readback_s);
  add("projection.project_ms", "ms", r.project_ms);
  add("density.eval_s", "s", t.total_s("density.evaluate"));
  add("multilevel.place_s", "s", t.total_s("multilevel.place"));
  add("multilevel.coarsen_s", "s", t.total_s("multilevel.coarsen"));
  add("legal.tetris_s", "s", t.total_s("legal.legalize"));
  add("legal.failed_cells", "count", static_cast<double>(c.legal_failed));
  add("legal.mean_displacement", "dbu",
      ratio(c.legal_displacement, static_cast<double>(c.legal_placed)));
  add("dp.refine_s", "s", t.total_s("dp.refine"));
  add("dp.passes", "count", static_cast<double>(c.dp_passes));
  add("dp.hpwl_gain_pct", "%",
      100.0 * ratio(c.dp_initial - c.dp_final, c.dp_initial));
  add("flow.job_s_p50", "s", percentile(job_s, 0.5));
  add("flow.job_s_p70", "s", percentile(job_s, 0.7));
  return m;
}

std::string spans_json(const Flow& f) {
  Json j;
  j.begin_object().field("top_level_coverage", f.tracer.top_level_coverage());
  j.key("self_s").begin_object();
  for (const auto& [name, self] : f.tracer.self_time_by_name())
    j.field(name, self);
  j.end_object();
  j.key("spans").begin_array();
  for (const Span& s : f.tracer.spans()) {
    j.begin_object()
        .field("name", s.name)
        .field("parent", static_cast<double>(s.parent))
        .field("start_s", s.start_s)
        .field("end_s", s.end_s);
    if (s.peak_rss_mb >= 0.0) j.field("peak_rss_mb", s.peak_rss_mb);
    j.end_object();
  }
  j.end_array().end_object();
  return j.str();
}

}  // namespace

TraceReport run_traced(const Input& in, const std::string& job_dir,
                       double untraced_wall_s) {
  set_log_level(LogLevel::Warn);  // the CLI jobs run with --quiet
  set_global_threads(kThreads);

  Flow f;
  const size_t root = f.tracer.open("flow");
  switch (in.kind) {
    case Kind::Fleet:
      fleet_flow(f, in);
      break;
    case Kind::Flat:
    case Kind::Multilevel:
      place_flow(f, in, job_dir + "/trace_place.pl");
      break;
    case Kind::Eco:
      eco_flow(f, in, job_dir);
      break;
  }
  f.tracer.close(root);
  const double flow_s = f.tracer.spans()[root].duration_s();

  const Replay r = replay_kernels(f.replay_nl, f.replay_p);
  f.report.top_level_coverage = f.tracer.top_level_coverage();
  f.report.self_s = f.tracer.self_time_by_name();
  f.report.per_layer = layer_metrics(f, r, flow_s, untraced_wall_s);
  const Totals& c = f.totals;
  f.report.context = {
      Metric("core.runs", "count", static_cast<double>(c.runs)),
      Metric("core.eco_dirty_cells", "count",
             static_cast<double>(c.eco_dirty)),
      Metric("core.eco_frozen_cells", "count",
             static_cast<double>(c.eco_frozen)),
      Metric("multilevel.levels", "count", static_cast<double>(c.levels)),
      Metric("multilevel.coarsest_cells", "count",
             static_cast<double>(c.coarsest_cells)),
  };
  f.report.trace_json = spans_json(f);
  return f.report;
}

}  // namespace bench
