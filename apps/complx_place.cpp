// complx_place — command-line global+detailed placement for Bookshelf
// designs.
//
//   complx_place <design.aux> [options]
//
// Options:
//   --out <file.pl>       write the final placement (default: <design>.complx.pl)
//   --target-density <g>  override the density target (0 < g <= 1)
//   --simpl               run the SimPL-compatibility configuration
//   --lse                 use the log-sum-exp interconnect model
//   --max-iters <n>       global placement iteration cap
//   --time-limit <s>      wall-clock budget for global placement in seconds
//                         (the whole V-cycle on the multilevel path); on
//                         expiry the best-so-far checkpoint is used
//   --threads <n>         worker threads for the parallel kernels (default:
//                         hardware concurrency; 1 = fully serial; results
//                         are bitwise identical for any value)
//   --no-dp               skip detailed placement
//   --orient              run cell-orientation optimization after DP
//   --trace <file.csv>    dump the per-iteration L/Phi/Pi trace
//   --stats               print the QP workspace breakdown (assembly vs
//                         solve wall time, CG iteration totals), the
//                         projection phase times (grid build, region find,
//                         spread, readback) and the process's peak RSS
//   --svg <file.svg>      render the final placement
//   --quiet               lower log verbosity
//   --snapshot <file>     experience store (io/experience.h): a crash-safe
//                         binary snapshot of converged placements keyed by
//                         netlist hash
//   --warm-start          probe the store; on an exact or topology hit the
//                         solver resumes from the stored placement, flat
//                         at any design size (the stored placement is
//                         already spread, so no V-cycle runs); a miss
//                         places as without the flag
//   --save-experience     record this run's converged placement back
//   --ml-threshold <n>    movable-cell count at which the multilevel
//                         V-cycle replaces flat placement (default 1000000;
//                         0 forces multilevel, a huge value forces flat)
//   --eco-window <xl,yl,xh,yh>
//                         incremental (ECO) mode: re-place ONLY the movable
//                         cells whose centers lie inside the window,
//                         holding every other cell bitwise fixed; reads the
//                         incoming .pl positions as the baseline, skips
//                         legalization/DP, writes the updated placement;
//                         cannot be combined with --warm-start or
//                         --save-experience
//
// Exit-code contract, the same for flat, multilevel and ECO runs (see README
// "Failure modes & exit codes"):
//   0    success — including time-limited runs that returned the best-so-far
//        checkpoint instead of a converged placement
//   1    usage error (bad flags / missing arguments)
//   2    fatal error: unreadable or malformed input, I/O failure, or
//        legalization failure
//   3    numerical divergence: the watchdog exhausted its recovery retries;
//        the best-so-far placement is still written before exiting
//   4    degraded experience store: the placement SUCCEEDED and was written,
//        but the snapshot store was corrupt on load (quarantined to
//        <file>.corrupt, run proceeded cold) or could not be saved
//   130  interrupted (SIGINT), during global placement (its best-so-far
//        checkpoint is used) or after it; a running DP pass stops at its
//        next check between moves, passes not yet started are skipped, no
//        experience is recorded, and the placement is written first
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bookshelf/reader.h"
#include "bookshelf/writer.h"
#include "core/eco.h"
#include "core/flow.h"
#include "core/placer.h"
#include "multilevel/auto.h"
#include "io/experience.h"
#include "util/parse_num.h"
#include "core/trace.h"
#include "density/metric.h"
#include "dp/orientation.h"
#include "io/svg.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "wl/hpwl.h"

using namespace complx;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: complx_place <design.aux> [--out f.pl] "
               "[--target-density g] [--simpl] [--lse] [--max-iters n] "
               "[--time-limit s] [--threads n] [--no-dp] [--orient] "
               "[--trace f.csv] [--stats] [--svg f.svg] [--quiet] "
               "[--snapshot store.snap [--warm-start] [--save-experience]] "
               "[--ml-threshold n] [--eco-window xl,yl,xh,yh]\n");
}

/// Parses --eco-window's "xl,yl,xh,yh": four strict numbers, xl <= xh and
/// yl <= yh. Throws ParseError naming `flag` otherwise.
Rect parse_window(const std::string& flag, const std::string& text) {
  std::vector<double> v;
  for (size_t start = 0, end = 0; end != std::string::npos; start = end + 1) {
    end = text.find(',', start);
    v.push_back(parse_double(flag, text.substr(start, end - start)));
  }
  if (v.size() != 4 || v[2] < v[0] || v[3] < v[1])
    throw ParseError(flag + ": expected xl,yl,xh,yh with xl <= xh and "
                            "yl <= yh, got \"" + text + "\"");
  return {v[0], v[1], v[2], v[3]};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  std::string aux_path;
  std::string out_path;
  std::string trace_path;
  std::string svg_path;
  std::string snapshot_path;
  double target_density = 0.0;
  bool simpl = false, lse = false, run_dp = true, quiet = false;
  bool orient = false, stats = false;
  bool warm_start = false, save_experience = false;
  std::optional<Rect> eco_window;
  AutoPlaceOptions aopts;
  int max_iters = 0;
  int threads = 0;
  double time_limit = 0.0;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s: missing value\n", arg.c_str());
          usage();
          std::exit(1);
        }
        return argv[++i];
      };
      if (arg == "--out") out_path = next();
      else if (arg == "--target-density")
        target_density = parse_double(arg, next(), 1e-6, 1.0);
      else if (arg == "--simpl") simpl = true;
      else if (arg == "--lse") lse = true;
      else if (arg == "--max-iters")
        max_iters = static_cast<int>(parse_int64(arg, next(), 1, 1000000));
      else if (arg == "--time-limit")
        time_limit = parse_double(arg, next(), 0.0);
      else if (arg == "--threads")
        threads = static_cast<int>(parse_int64(arg, next(), 0, 65536));
      else if (arg == "--no-dp") run_dp = false;
      else if (arg == "--orient") orient = true;
      else if (arg == "--trace") trace_path = next();
      else if (arg == "--stats") stats = true;
      else if (arg == "--svg") svg_path = next();
      else if (arg == "--quiet") quiet = true;
      else if (arg == "--snapshot") snapshot_path = next();
      else if (arg == "--warm-start") warm_start = true;
      else if (arg == "--save-experience") save_experience = true;
      else if (arg == "--ml-threshold")
        aopts.multilevel_threshold = static_cast<size_t>(
            parse_int64(arg, next(), 0, int64_t{1} << 40));
      else if (arg == "--eco-window") eco_window = parse_window(arg, next());
      else if (arg[0] == '-') {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        usage();
        return 1;
      } else {
        aux_path = arg;
      }
    }
  } catch (const ParseError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage();
    return 1;
  }
  if (aux_path.empty()) {
    usage();
    return 1;
  }
  if ((warm_start || save_experience) && snapshot_path.empty()) {
    std::fprintf(stderr,
                 "--warm-start/--save-experience require --snapshot\n");
    usage();
    return 1;
  }
  if (eco_window && (warm_start || save_experience)) {
    std::fprintf(stderr, "--eco-window cannot be combined with --warm-start "
                         "or --save-experience\n");
    usage();
    return 1;
  }
  set_log_level(quiet ? LogLevel::Warn : LogLevel::Info);
  set_global_threads(static_cast<size_t>(threads));
  // SIGINT raises the process-wide cancel flag (util/parallel.h): the placer
  // stops at the next iteration boundary and returns its best-so-far
  // checkpoint, and so does a running DP pass at its next check; main()
  // skips the passes not yet started, writes the placement and exits 130. A
  // second ^C kills the process the default way. Installed before the read:
  // a ^C at any point still writes a placement, exit 130.
  cancel_on_sigint();

  try {
    Timer total;
    BookshelfDesign design = read_bookshelf(aux_path);
    Netlist& nl = design.netlist;
    if (target_density > 0.0) nl.set_target_density(target_density);
    std::printf("%s: %zu cells (%zu movable), %zu nets, %zu pins, "
                "density target %.2f\n",
                design.name.c_str(), nl.num_cells(), nl.num_movable(),
                nl.num_nets(), nl.num_pins(), nl.target_density());

    ComplxConfig cfg = simpl ? ComplxConfig::simpl_mode() : ComplxConfig{};
    cfg.use_lse = lse;
    if (max_iters > 0) cfg.max_iterations = max_iters;
    if (time_limit > 0.0) cfg.time_limit_s = time_limit;

    // Experience store: corruption on load is NOT fatal — open() quarantines
    // the damaged file and degrades to a cold start; main() reports it as
    // exit code 4 after the placement has been produced and written.
    std::unique_ptr<ExperienceStore> experience;
    if (!snapshot_path.empty()) {
      ExperienceStore::Options eo;
      eo.path = snapshot_path;
      experience = std::make_unique<ExperienceStore>(eo);
      const SnapshotError load_err = experience->open();
      if (load_err != SnapshotError::None)
        std::fprintf(stderr,
                     "warning: experience store %s is corrupt (%s); "
                     "continuing with a cold start\n",
                     snapshot_path.c_str(), to_string(load_err));
    }
    std::optional<Placement> start;
    if (experience && warm_start) start = experience->resume_point(nl);

    // ECO, a warm-start resume, or place_auto (flat or V-cycle); the rest
    // sees only gp.
    PlaceResult gp;
    if (eco_window) {
      EcoResult eco = eco_replace(nl, {.window = *eco_window, .config = cfg});
      const bool full_solve = eco.frozen_cells == 0 && eco.dirty_cells > 0;
      std::printf("eco: %zu dirty / %zu frozen movables%s\n", eco.dirty_cells,
                  eco.frozen_cells, full_solve ? " (full solve)" : "");
      gp = std::move(eco.place);
    } else if (start) {
      gp = ComplxPlacer(nl, cfg).resume(*start);
    } else {
      MultilevelResult ml = place_auto(nl, cfg, aopts);
      if (!ml.levels.empty()) {
        std::printf("multilevel: %zu level(s),", ml.levels.size() - 1);
        for (const LevelOutcome& l : ml.levels) std::printf(" %zu", l.cells);
        std::printf(" cells, stops");
        for (const LevelOutcome& l : ml.levels)
          std::printf(" %s", to_string(l.stop));
        std::printf(", %.1fs\n", ml.place.runtime_s);
      }
      gp = std::move(ml.place);
    }
    if (start)
      std::printf("warm start: resumed from experience store %s\n",
                  snapshot_path.c_str());
    std::printf("global placement: %d iterations (%s), lambda %.3f, "
                "overflow %.1f%%, HPWL(lb/ub) %.4g / %.4g\n",
                gp.iterations, to_string(gp.stop), gp.final_lambda,
                100.0 * gp.final_overflow, hpwl(nl, gp.lower_bound),
                hpwl(nl, gp.anchors));
    std::printf("solver: %zu solves (%zu non-converged, %zu breakdowns), "
                "%d recoveries, %zu health faults\n",
                gp.solver.solves, gp.solver.nonconverged,
                gp.solver.breakdowns, gp.recovered, gp.health.faults);
    if (stats) {
      const SolverStats& s = gp.solver;
      std::printf("qp workspace: assembly %.3fs, solve %.3fs\n",
                  s.assembly_s, s.solve_s);
      std::printf("cg: %zu iterations total (%.1f per solve), "
                  "worst residual %.3g\n",
                  s.total_cg_iterations,
                  s.solves == 0 ? 0.0
                                : static_cast<double>(s.total_cg_iterations) /
                                      static_cast<double>(s.solves),
                  s.worst_residual);
      std::printf("projection: %zu calls, grid build %.3fs, region find "
                  "%.3fs, spread %.3fs, readback %.3fs\n",
                  s.projections, s.proj_grid_build_s, s.proj_region_find_s,
                  s.proj_spread_s, s.proj_readback_s);
    }
    if (gp.stop == StopReason::Plateau)
      std::printf("warm start: plateaued at resumed quality; keeping "
                  "best-so-far checkpoint from iteration %d\n",
                  gp.best_iteration);
    else if (gp.stop != StopReason::Converged)
      std::fprintf(stderr,
                   "warning: stopped early (%s); using best-so-far "
                   "checkpoint from iteration %d\n",
                   to_string(gp.stop), gp.best_iteration);
    if (gp.stop == StopReason::Diverged)
      std::fprintf(stderr, "error: %s\n", gp.failure.c_str());
    if (!trace_path.empty()) write_trace_csv(trace_path, gp.trace);

    Placement p;
    if (eco_window) {
      // ECO keeps frozen cells bitwise: no legalization, DP or density.
      p = nl.snapshot();
      std::printf("final: HPWL %.6g, %.1fs total\n", hpwl(nl, p),
                  total.seconds());
    } else {
      // After ^C the user wants the placement on disk, not minutes of DP.
      FinishResult fin =
          finish_placement(nl, gp.anchors, {.detailed = run_dp});
      if (fin.legal.failed) {
        std::fprintf(stderr, "legalization failed for %zu cells\n",
                     fin.legal.failed);
        return 2;
      }
      if (fin.dp)
        std::printf("detailed placement: %.4g -> %.4g%s\n",
                    fin.dp->initial_hpwl, fin.dp->final_hpwl,
                    fin.dp->cancelled ? " (interrupted, pass cut short)" : "");
      p = std::move(fin.placement);
      if (orient && !cancel_requested()) {
        const OrientationResult orient_res = optimize_orientation(nl, p);
        std::printf("orientation: %zu cells flipped, HPWL %.4g -> %.4g\n",
                    orient_res.flipped, orient_res.initial_hpwl,
                    orient_res.final_hpwl);
        // Flips move pins but no cell: re-score the wirelength only.
        fin.metric = evaluate_scaled_hpwl(nl, p);
      }
      const DensityMetric& metric = fin.metric;
      std::printf("final: HPWL %.6g, scaled HPWL %.6g (overflow %.2f%%), "
                  "legal: %s, %.1fs total\n",
                  metric.hpwl, metric.scaled_hpwl, metric.overflow_percent,
                  fin.is_legal ? "yes" : "NO",
                  total.seconds());
    }

    if (out_path.empty()) {
      out_path = aux_path;
      const size_t dot = out_path.find_last_of('.');
      if (dot != std::string::npos) out_path.resize(dot);
      out_path += ".complx.pl";
    }
    write_pl(nl, p, out_path);
    std::printf("placement written to %s\n", out_path.c_str());
    if (!svg_path.empty()) {
      write_placement_svg(nl, p, svg_path);
      std::printf("svg written to %s\n", svg_path.c_str());
    }
    if (stats) {
      // Linux reports ru_maxrss in KiB: the process's high-water mark so
      // far, which after the write covers global placement, legalization
      // and detailed placement.
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      std::printf("memory: peak RSS %.1f MB\n",
                  static_cast<double>(usage.ru_maxrss) / 1024.0);
    }
    // Record the best usable global placement (the anchors a warm start
    // resumes from). A save failure marks the store degraded, never aborts.
    if (experience && save_experience && recordable(gp) &&
        !cancel_requested() &&
        experience->record(nl, gp.anchors, weighted_hpwl(nl, gp.anchors),
                           gp.iterations))
      std::printf("experience saved to %s (%zu record(s))\n",
                  snapshot_path.c_str(), experience->size());

    // Exit-code contract: the best-so-far placement has been written by the
    // time these non-zero codes are returned. Degraded store (4) ranks
    // below divergence (3) and interruption (130) — those already imply the
    // run itself went wrong.
    if (gp.stop == StopReason::Diverged) return 3;
    if (cancel_requested()) return 130;
    if (experience && experience->degraded()) {
      std::fprintf(stderr, "warning: experience store degraded: %s\n",
                   experience->degraded_reason().c_str());
      return 4;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
