// Known-optimum benchmark fleet: run the full placement flow on a set of
// PEKO designs (gen/peko.h) spanning size / density / macro-mix axes and
// score each as a suboptimality ratio hpwl / optimum_hpwl >= 1.
//
// The fleet is the measurement substrate for the statistical quality gate
// (scripts/quality_gate.py): a baseline and a candidate build run the SAME
// seeded designs, and the paired per-design ratio differences feed an
// SPRT-style sign test that accepts or rejects the candidate. Records are
// persisted as machine-readable JSON (BENCH_quality.json at the repo root
// accumulates the trajectory across PRs; docs/BENCHMARKS.md documents the
// schema).
//
// Everything except wall_s is bitwise deterministic in (design seed, fleet
// options) at any thread count — enforced by test_golden_determinism.
#pragma once

// complx-lint: allow(P1): holds a pointer to the apps' SIGINT cancel flag;
// polled at iteration/design boundaries only, never in numeric kernels.
#include <atomic>
#include <string>
#include <vector>

#include "core/health.h"
#include "gen/peko.h"

namespace complx {

class ExperienceStore;

enum class FleetPreset {
  Gate,   ///< 20 tiny designs — fast enough for a ctest-side gate run
  Smoke,  ///< 36 designs across size x density x macro axes (CI / BENCH_*.json)
};

const char* to_string(FleetPreset preset);

/// The seeded design list for a preset. Design names encode their axes
/// (peko_c<cells>_u<util%>_m<macros>_s<seed>); identical (preset, base_seed)
/// always yields the identical list, which is what makes baseline/candidate
/// runs pairable by name.
std::vector<PekoParams> fleet_designs(FleetPreset preset,
                                      uint64_t base_seed = 1);

struct FleetRunOptions {
  int max_iterations = 60;  ///< global-placement iteration cap
  size_t threads = 1;       ///< worker threads (0 = inherit process setting)
  bool detailed = true;     ///< run detailed placement after legalization
  bool record_timing = true;  ///< false => wall_s = 0 (deterministic record)
  /// Recorded in the run's config block; the placer accepts only "spread"
  /// (see ComplxConfig::density_backend).
  std::string density_backend = "spread";

  /// Experience store (io/experience.h): when non-null, each design probes
  /// the store and resumes from a hit instead of starting cold (warm_start)
  /// and/or records its converged global placement back (save_experience).
  /// The store is probed and updated per design, so within one fleet run
  /// design k can already warm-start from design k's record of a previous
  /// run.
  ExperienceStore* experience = nullptr;
  bool warm_start = false;
  bool save_experience = false;

  /// Cooperative cancellation (SIGINT): checked between designs by the fleet
  /// driver and at iteration boundaries inside the placer.
  /// complx-lint: allow(P1): see header note — control flow only.
  const std::atomic<bool>* cancel = nullptr;
};

/// One design's scored flow result (global place -> legalize -> DP).
struct FleetRecord {
  std::string name;
  uint64_t seed = 0;
  size_t cells = 0;    ///< placeable grid cells (movable + fixed anchors)
  size_t movable = 0;
  size_t nets = 0;
  size_t macros = 0;   ///< pin-less blockages actually placed
  double utilization = 0.0;  ///< achieved placeable-area / core-area

  double optimum_hpwl = 0.0;  ///< closed-form optimum (gen/peko.h)
  double hpwl = 0.0;          ///< legalized (+DP) result
  double ratio = 0.0;         ///< hpwl / optimum_hpwl; >= 1 iff legal
  double overflow_percent = 0.0;
  bool legal = false;
  int iterations = 0;
  bool warm_started = false;  ///< resumed from an experience-store record
  double wall_s = 0.0;  ///< full-flow wall time (0 when !record_timing)
  StopReason stop = StopReason::Converged;  ///< why global placement ended
  int recoveries = 0;  ///< watchdog rollbacks during global placement
};

/// Runs the full flow on one design and scores it against the closed-form
/// optimum. Deterministic in (params, opts) except for wall_s.
FleetRecord run_fleet_design(const PekoParams& params,
                             const FleetRunOptions& opts);

struct FleetSummary {
  size_t designs = 0;
  size_t illegal = 0;  ///< records with legal == false (should be 0)
  size_t warm_started = 0;  ///< designs resumed from the experience store
  double geomean_ratio = 0.0;
  double max_ratio = 0.0;
  double mean_overflow_percent = 0.0;
  double total_wall_s = 0.0;
};

FleetSummary summarize_fleet(const std::vector<FleetRecord>& records);

/// Writes one fleet run as a self-contained JSON object (schema_version 1).
/// scripts/quality_gate.py consumes these for the paired gate and can append
/// them to the BENCH_quality.json trajectory. The write is atomic (temp +
/// fsync + rename, util/atomic_file.h): a crash mid-write never leaves a
/// half-written JSON for the gate to choke on. Throws on I/O failure.
void write_fleet_run_json(const std::string& path, const std::string& label,
                          const std::string& preset,
                          const FleetRunOptions& opts,
                          const std::vector<FleetRecord>& records);

}  // namespace complx
