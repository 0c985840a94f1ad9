// The four bench_e2e workloads: how their inputs are generated, which CLI
// jobs make up one repetition, how each output is checked, and the traced
// in-process run that splits a workload's time by layer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/peko.h"
#include "harness.h"
#include "netlist/netlist.h"

namespace bench {

enum class Kind { Fleet, Flat, Multilevel, Eco };

/// Every job and the traced run use one worker thread (README, "Load shape").
inline constexpr size_t kThreads = 1;

struct Options {
  /// Recorded with the results. The inputs do not depend on it: each
  /// workload places the same designs on every run (README, "Inputs").
  uint64_t seed = 1;
  /// Keep starting repetitions while the next one is expected to finish
  /// within this many seconds of measurement (0: stop at `reps`).
  double seconds = 0.0;
  size_t reps = 3;  ///< minimum number of repetitions
  bool trace = false;
  std::string out_dir = "bench_e2e_out";
  std::string place_bin;
  std::string fleet_bin;
};

/// A workload's generated input, in memory and on disk.
struct Input {
  Kind kind = Kind::Flat;
  uint64_t seed = 0;            ///< the workload's design seed
  std::string base;             ///< Bookshelf path prefix (<dir>/<name>)
  std::vector<complx::PekoParams> fleet;  ///< fleet designs (fleet only)
  double optimum_hpwl = 0.0;    ///< certified optimum (eco only)
  std::vector<complx::Rect> windows;      ///< ECO windows (eco only)
  complx::Netlist netlist;      ///< the input as read back (eco only)

  std::string aux() const { return base + ".aux"; }
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  Summary spread;  ///< n > 0 when `value` is the median of `samples`
  std::vector<double> samples;  ///< repeated samples, in run order

  Metric(std::string n, std::string u, double v)
      : name(std::move(n)), unit(std::move(u)), value(v) {}
  /// The median of repeated samples, with their quartiles.
  Metric(std::string n, std::string u, std::vector<double> s)
      : name(std::move(n)),
        unit(std::move(u)),
        spread(summarize(s)),
        samples(std::move(s)) {
    value = spread.median;
  }
};

/// Result of the traced run of one workload.
struct TraceReport {
  std::vector<double> hpwl;          ///< per job, measured like the CLI's
  std::vector<std::string> outputs;  ///< .pl files written (not fleet)
  std::vector<Metric> per_layer;
  std::vector<Metric> context;  ///< shape of the work done, results file only
  std::vector<std::pair<std::string, double>> self_s;
  double top_level_coverage = 0.0;
  std::string trace_json;  ///< every span, for trace_<workload>.json
};

/// Runs the workload's flow once in this process, a span around every call
/// into a layer, then replays single kernels on the final placement.
/// `untraced_wall_s` is the median wall time of the CLI jobs, the reference
/// for the tracing overhead.
TraceReport run_traced(const Input& in, const std::string& job_dir,
                       double untraced_wall_s);

struct WorkloadReport {
  std::string name;
  std::string why;
  size_t reps = 0;
  size_t jobs_per_rep = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> quality;  ///< results file only (see README)
  TraceReport trace;            ///< filled when Options::trace
};

const std::vector<std::string>& workload_names();

/// Generates the inputs, times set-up, runs repetitions of the CLI jobs
/// until the measurement budget is spent, checks every output and, with
/// Options::trace, adds the traced run.
WorkloadReport run_workload(const std::string& name, const Options& opts,
                            Spawner& spawner);

}  // namespace bench
