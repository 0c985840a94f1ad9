// complx_fleet — run the known-optimum (PEKO) benchmark fleet and emit the
// per-design suboptimality records as machine-readable JSON.
//
//   complx_fleet --preset smoke --out run.json [options]
//
// Options:
//   --preset gate|smoke   design list (gate: 20 tiny designs for the ctest
//                         gate; smoke: 36 designs across size/density/macro
//                         axes — the BENCH_quality.json trajectory entry)
//   --out <file.json>     where to write the run (default: fleet_run.json);
//                         the write is atomic (temp + fsync + rename)
//   --label <name>        run label recorded in the JSON (default: preset)
//   --seed <s>            base seed for the design list (default: 1)
//   --max-iters <n>       global-placement iteration cap (default: 60);
//                         lowering this is the canonical "deliberately
//                         degraded candidate" for gate self-tests
//   --threads <n>         worker threads (default: 1 — deterministic anyway,
//                         but 1 keeps CI containers honest)
//   --no-dp               skip detailed placement
//   --no-timing           record wall_s = 0 (bitwise-deterministic output)
//   --quiet               per-design progress off
//   --snapshot <file>     experience store shared by all designs in the run
//   --warm-start          probe the store before each design's cold bootstrap
//   --save-experience     record each converged global placement back
//
// The paired quality gate consumes two of these runs:
//   complx_fleet --preset gate --out baseline.json
//   complx_fleet --preset gate --out cand.json [--max-iters ...]
//   python3 scripts/quality_gate.py compare --baseline baseline.json
//       --candidate cand.json
// and the warm-start gate pairs a cold --save-experience run with a
// subsequent --warm-start rerun (quality_gate.py warm).
//
// Exit-code contract (complx_place's, without its 3):
//   0    success (all records legal)
//   1    usage error
//   2    fatal error or illegal records
//   4    degraded experience store (fleet itself succeeded)
//   130  interrupted (SIGINT); records completed so far are written first
// A design whose global placement diverged does not change the exit code:
// it shows in its record's "stop" field, and quality_gate.py warm fails on
// it.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "gen/fleet.h"
#include "io/experience.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/parse_num.h"

using namespace complx;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: complx_fleet [--preset gate|smoke] [--out f.json] "
               "[--label name] [--seed s] [--max-iters n] [--threads n] "
               "[--no-dp] [--no-timing] [--quiet] "
               "[--snapshot store.snap [--warm-start] [--save-experience]]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string preset_name = "smoke";
  std::string out_path = "fleet_run.json";
  std::string label;
  std::string snapshot_path;
  uint64_t base_seed = 1;
  FleetRunOptions opts;
  bool quiet = false;

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
      if (arg == "--preset") preset_name = next();
      else if (arg == "--out") out_path = next();
      else if (arg == "--label") label = next();
      else if (arg == "--seed") base_seed = parse_uint64(arg, next());
      else if (arg == "--max-iters")
        opts.max_iterations =
            static_cast<int>(parse_int64(arg, next(), 1, 1000000));
      else if (arg == "--threads")
        opts.threads =
            static_cast<size_t>(parse_uint64(arg, next(), 0, 65536));
      else if (arg == "--no-dp") opts.detailed = false;
      else if (arg == "--no-timing") opts.record_timing = false;
      else if (arg == "--quiet") quiet = true;
      else if (arg == "--snapshot") snapshot_path = next();
      else if (arg == "--warm-start") opts.warm_start = true;
      else if (arg == "--save-experience") opts.save_experience = true;
      else {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        usage();
        return 1;
      }
    }
  } catch (const ParseError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage();
    return 1;
  }
  FleetPreset preset;
  if (preset_name == "gate") preset = FleetPreset::Gate;
  else if (preset_name == "smoke") preset = FleetPreset::Smoke;
  else {
    std::fprintf(stderr, "unknown preset: %s\n", preset_name.c_str());
    usage();
    return 1;
  }
  if ((opts.warm_start || opts.save_experience) && snapshot_path.empty()) {
    std::fprintf(stderr,
                 "--warm-start/--save-experience require --snapshot\n");
    usage();
    return 1;
  }
  if (label.empty()) label = preset_name;
  set_log_level(LogLevel::Warn);
  set_global_threads(opts.threads);
  // SIGINT raises the process-wide cancel flag (util/parallel.h): the
  // current design's placer stops at the next iteration boundary, its DP is
  // skipped or cut short, the fleet loop stops at the next design boundary,
  // and the records completed so far are still written out before exiting
  // 130. A second ^C kills the process the default way.
  cancel_on_sigint();

  try {
    // Corruption on load degrades to cold starts (exit 4 at the end), it
    // never aborts the fleet; the damaged file is quarantined by open().
    std::unique_ptr<ExperienceStore> experience;
    if (!snapshot_path.empty()) {
      ExperienceStore::Options eo;
      eo.path = snapshot_path;
      experience = std::make_unique<ExperienceStore>(eo);
      const SnapshotError load_err = experience->open();
      if (load_err != SnapshotError::None)
        std::fprintf(stderr,
                     "warning: experience store %s is corrupt (%s); "
                     "continuing with cold starts\n",
                     snapshot_path.c_str(), to_string(load_err));
      opts.experience = experience.get();
    }

    const std::vector<PekoParams> designs = fleet_designs(preset, base_seed);
    std::vector<FleetRecord> records;
    records.reserve(designs.size());
    bool interrupted = false;
    for (size_t k = 0; k < designs.size(); ++k) {
      if (cancel_requested()) {
        interrupted = true;
        std::fprintf(stderr, "interrupted after %zu/%zu designs\n", k,
                     designs.size());
        break;
      }
      records.push_back(run_fleet_design(designs[k], opts));
      const FleetRecord& r = records.back();
      if (!quiet)
        std::printf("[%2zu/%zu] %-28s ratio %.4f  overflow %5.2f%%  "
                    "%s  %d iters%s %s  %.2fs\n",
                    k + 1, designs.size(), r.name.c_str(), r.ratio,
                    r.overflow_percent, r.legal ? "legal" : "ILLEGAL",
                    r.iterations, r.warm_started ? " (warm)" : "",
                    to_string(r.stop), r.wall_s);
    }
    write_fleet_run_json(out_path, label, preset_name, opts, records);
    const FleetSummary s = summarize_fleet(records);
    std::printf("%zu designs: geomean ratio %.4f, max %.4f, "
                "mean overflow %.2f%%, %zu illegal, %zu warm, %.1fs -> %s\n",
                s.designs, s.geomean_ratio, s.max_ratio,
                s.mean_overflow_percent, s.illegal, s.warm_started,
                s.total_wall_s, out_path.c_str());
    // Exit-code contract (see header): completed records are on disk by the
    // time any non-zero code is returned.
    if (interrupted) return 130;
    // Illegal results mean the ratio lost its >= 1 certificate; callers
    // (CI, the gate) must be able to trust every record.
    if (s.illegal != 0) return 2;
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
