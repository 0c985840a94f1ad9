// bench_e2e — the end-to-end and per-layer placement benchmark.
//
//   bench_e2e --workload <name|all> [--seed n] [--reps n] [--seconds s]
//             [--trace [0|1]] [--out DIR]
//
// Each workload generates its inputs into DIR/<workload>/, runs its
// complx_place / complx_fleet jobs as child processes (closed loop, one job
// at a time, one thread each), and checks every output. Repetitions
// continue until at least --reps (default 3) are done and the next one
// would end past --seconds. With --trace the workload's flow is also run
// once in this process with a span around every call into a layer
// (DIR/trace_<workload>.json).
//
// Output: one line per metric on stdout, DIR/results.json, and as the last
// stdout line one JSON object {"correct", "attempted", "failed", "metrics"}
// holding the end-to-end metrics, or the per-layer metrics with --trace.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "util/parse_num.h"
#include "workloads.h"

using namespace bench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name|all> [--seed n] [--reps n] "
               "[--seconds s] [--trace [0|1]] [--out DIR]\n"
               "workloads:");
  for (const std::string& w : workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
}

void print_metric(const std::string& workload, const Metric& m) {
  std::printf("%-12s %-28s %16.6g %-8s", workload.c_str(), m.name.c_str(),
              m.value, m.unit.c_str());
  if (m.spread.n > 0)
    std::printf(" median of %zu, q1 %.6g, q3 %.6g", m.spread.n, m.spread.q1,
                m.spread.q3);
  std::printf("\n");
}

void metrics_json(Json& j, const std::vector<Metric>& metrics) {
  j.begin_object();
  for (const Metric& m : metrics) {
    j.key(m.name).begin_object().field("value", m.value).field("unit", m.unit);
    if (m.spread.n > 0)
      j.field("median", m.spread.median)
          .field("q1", m.spread.q1)
          .field("q3", m.spread.q3)
          .field("n", m.spread.n);
    if (!m.samples.empty()) {
      j.key("samples").begin_array();
      for (const double v : m.samples) j.value(v);
      j.end_array();
    }
    j.end_object();
  }
  j.end_object();
}

std::string results_json(const Options& o,
                         const std::vector<WorkloadReport>& reports) {
  Json j;
  j.begin_object()
      .field("schema", "complx-bench-e2e/1")
      .field("seed", static_cast<size_t>(o.seed))
      .field("min_reps", o.reps)
      .field("seconds", o.seconds)
      .field("threads", kThreads)
      .field("nproc", static_cast<size_t>(std::thread::hardware_concurrency()))
      .field("load", "closed loop, one client, one job at a time")
      .field("traced", o.trace);
  j.key("workloads").begin_array();
  for (const WorkloadReport& r : reports) {
    j.begin_object()
        .field("name", r.name)
        .field("why", r.why)
        .field("reps", r.reps)
        .field("jobs_per_rep", r.jobs_per_rep)
        .field("attempted", r.attempted)
        .field("failed", r.failed);
    j.key("failures").begin_array();
    for (const std::string& f : r.failures) j.value(f);
    j.end_array();
    j.key("end_to_end");
    metrics_json(j, r.end_to_end);
    j.key("quality");
    metrics_json(j, r.quality);
    if (o.trace) {
      j.key("per_layer");
      metrics_json(j, r.trace.per_layer);
      j.key("context");
      metrics_json(j, r.trace.context);
      j.field("top_level_coverage", r.trace.top_level_coverage);
      j.key("self_s").begin_object();
      for (const auto& [name, s] : r.trace.self_s) j.field(name, s);
      j.end_object();
    }
    j.end_object();
  }
  j.end_array().end_object();
  return j.str() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Spawner spawner;  // before anything large is allocated
  Options opts;
  std::string workload;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) throw complx::ParseError(arg + ": missing value");
        return argv[++i];
      };
      if (arg == "--workload") workload = next();
      else if (arg == "--seed") opts.seed = complx::parse_uint64(arg, next());
      else if (arg == "--reps")
        opts.reps = complx::parse_uint64(arg, next(), 1, 1000);
      else if (arg == "--seconds")
        opts.seconds = complx::parse_double(arg, next(), 0.0, 3600.0);
      else if (arg == "--trace") {
        // Both `--trace` and `--trace 0|1`.
        opts.trace = true;
        if (i + 1 < argc && (std::string(argv[i + 1]) == "0" ||
                             std::string(argv[i + 1]) == "1"))
          opts.trace = std::string(argv[++i]) == "1";
      } else if (arg == "--out") opts.out_dir = next();
      else throw complx::ParseError("unknown option: " + arg);
    }
  } catch (const complx::ParseError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage();
    return 1;
  }
  if (workload.empty()) {
    usage();
    return 1;
  }
  opts.place_bin = COMPLX_PLACE_BIN;
  opts.fleet_bin = COMPLX_FLEET_BIN;

  std::vector<std::string> names;
  if (workload == "all") names = workload_names();
  else names.push_back(workload);

  try {
    std::filesystem::create_directories(opts.out_dir);
    std::vector<WorkloadReport> reports;
    for (const std::string& name : names) {
      std::fprintf(stderr, "bench_e2e: %s (seed %llu)\n", name.c_str(),
                   static_cast<unsigned long long>(opts.seed));
      reports.push_back(run_workload(name, opts, spawner));
      const WorkloadReport& r = reports.back();
      for (const Metric& m : r.end_to_end) print_metric(r.name, m);
      for (const Metric& m : r.quality) print_metric(r.name, m);
      for (const Metric& m : r.trace.per_layer) print_metric(r.name, m);
      for (const Metric& m : r.trace.context) print_metric(r.name, m);
      for (const std::string& f : r.failures)
        std::fprintf(stderr, "bench_e2e: %s: FAILED %s\n", r.name.c_str(),
                     f.c_str());
      if (opts.trace)
        write_file(opts.out_dir + "/trace_" + r.name + ".json",
                   r.trace.trace_json + "\n");
    }
    write_file(opts.out_dir + "/results.json", results_json(opts, reports));

    // The last line: the end-to-end metrics, or the per-layer metrics of a
    // traced run; prefixed with the workload name when several ran.
    size_t attempted = 0, failed = 0;
    Json line;
    line.begin_object();
    for (const WorkloadReport& r : reports) {
      attempted += r.attempted;
      failed += r.failed;
    }
    line.field("correct", failed == 0)
        .field("attempted", attempted)
        .field("failed", failed);
    line.key("metrics").begin_object();
    for (const WorkloadReport& r : reports) {
      const std::string prefix = reports.size() > 1 ? r.name + "." : "";
      for (const Metric& m : opts.trace ? r.trace.per_layer : r.end_to_end)
        line.key(prefix + m.name)
            .begin_object()
            .field("value", m.value)
            .field("unit", m.unit)
            .end_object();
    }
    line.end_object().end_object();
    std::printf("%s\n", line.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: error: %s\n", e.what());
    return 2;
  }
}
