#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "bookshelf/reader.h"
#include "bookshelf/writer.h"
#include "gen/fleet.h"
#include "gen/generator.h"
#include "legal/tetris.h"
#include "util/rng.h"
#include "wl/hpwl.h"

namespace bench {

namespace fs = std::filesystem;
using namespace complx;

namespace {

// Sizes are chosen so that one repetition of flat-20k, ml-12k and eco-20k
// takes 4-7 s at one thread. A run always makes at least Options::reps
// repetitions, so fleet-smoke (8-12 s) gets three even where that overruns
// --seconds.
constexpr size_t kFlatCells = 20000;
constexpr size_t kMlCells = 12000;
constexpr size_t kMlThreshold = 6000;  // complx_place --ml-threshold
constexpr size_t kEcoCells = 20000;
constexpr size_t kEcoMacros = 8;
constexpr double kEcoUtilization = 0.60;  // room for all 8 macros
constexpr size_t kEcoJobs = 12;
// Set-up is sampled in equal slices before the first repetition and after
// each one, so that its median spans the run as the repetitions' does.
constexpr size_t kMinSetupPerSlice = 2;
constexpr size_t kMaxSetupPerSlice = 100;
constexpr double kSetupSliceSeconds = 0.5;
constexpr double kMinTraceCoverage = 0.98;
// Every workload places the same designs on every run, whatever --seed
// says: a different design moves hpwl by about 2% and peak RSS by up to
// 10%, which would drown the regressions the bounds are there to catch.
constexpr uint64_t kDesignSeed = 1;

struct Spec {
  const char* name;
  Kind kind;
  const char* why;
};

const Spec kSpecs[] = {
    {"fleet-smoke", Kind::Fleet,
     "complx_fleet smoke preset, 36 certified designs of 256-2304 cells: "
     "per-job fixed costs, legalization and DP dominate; large-kernel "
     "speedups should not move it"},
    {"flat-20k", Kind::Flat,
     "one generated 20k-cell design placed flat: B2B assembly, PCG and "
     "spreading dominate, Bookshelf I/O is a few percent"},
    {"ml-12k", Kind::Multilevel,
     "a generated 12k-cell design through the multilevel V-cycle "
     "(--ml-threshold 6000): coarsening, coarse netlists and per-level "
     "placer runs"},
    {"eco-20k", Kind::Eco,
     "12 ECO windows covering 5-25% of the core of a certified 20k-cell "
     "design with fixed macros: Bookshelf read/write and frozen-cell set-up "
     "dominate, the primal kernels do little"},
};

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return s;
  throw std::invalid_argument("unknown workload: " + name);
}

/// ECO windows: area fractions spread evenly over 5-25% of the core, with
/// seeded aspect ratios (1:2 to 2:1) and positions.
std::vector<Rect> eco_windows(const Rect& core, uint64_t seed) {
  Rng rng(seed ^ 0xEC0ull);
  std::vector<Rect> out;
  for (size_t k = 0; k < kEcoJobs; ++k) {
    const double frac = 0.05 + 0.20 * static_cast<double>(k) /
                                   static_cast<double>(kEcoJobs - 1);
    const double area = frac * core.area();
    const double aspect = std::exp(rng.uniform(std::log(0.5), std::log(2.0)));
    const double w = std::min(core.width(), std::sqrt(area * aspect));
    const double h = std::min(core.height(), area / w);
    const double xl = rng.uniform(core.xl, core.xh - w);
    const double yl = rng.uniform(core.yl, core.yh - h);
    out.push_back({xl, yl, xl + w, yl + h});
  }
  return out;
}

Input make_input(Kind kind, const std::string& dir) {
  Input in;
  in.kind = kind;
  in.seed = kDesignSeed;
  if (kind == Kind::Fleet) {
    // complx_fleet derives its designs from its --seed.
    in.fleet = fleet_designs(FleetPreset::Smoke, in.seed);
    return in;
  }
  in.base = dir + "/design";
  if (kind == Kind::Eco) {
    PekoParams pp;
    pp.name = "design";
    pp.seed = in.seed;
    pp.num_cells = kEcoCells;
    pp.num_fixed_macros = kEcoMacros;
    pp.utilization = kEcoUtilization;
    const PekoDesign d = generate_peko(pp);
    in.optimum_hpwl = d.optimum_hpwl;
    write_bookshelf(d.netlist, dir, "design");
    // The reference for the outside-window check: the input as the CLI
    // reads it.
    in.netlist = read_bookshelf(in.aux()).netlist;
    in.windows = eco_windows(in.netlist.core(), in.seed);
  } else {
    GenParams gp;
    gp.name = "design";
    gp.seed = in.seed;
    gp.num_cells = kind == Kind::Flat ? kFlatCells : kMlCells;
    write_bookshelf(generate_circuit(gp), dir, "design");
  }
  return in;
}

/// One set-up: the input netlist brought into memory the way the CLI does.
double time_setup(const Input& in) {
  const double t0 = now_s();
  if (in.kind == Kind::Fleet) {
    for (const PekoParams& p : in.fleet) generate_peko(p);
  } else {
    read_bookshelf(in.aux());
  }
  return now_s() - t0;
}

struct Job {
  std::vector<std::string> argv;
  std::string output;
  std::string log;
  size_t window = 0;  ///< index into Input::windows (ECO jobs)
};

std::string window_arg(const Rect& w) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.17g,%.17g,%.17g,%.17g", w.xl, w.yl, w.xh,
                w.yh);
  return buf;
}

std::vector<Job> make_jobs(const Input& in, const Options& o,
                           const std::string& dir) {
  const std::string threads = std::to_string(kThreads);
  std::vector<Job> jobs;
  auto place_job = [&](const std::string& stem) {
    Job j;
    j.output = dir + "/" + stem + ".pl";
    j.log = dir + "/" + stem + ".log";
    j.argv = {o.place_bin, in.aux(), "--threads", threads, "--quiet",
              "--out", j.output};
    return j;
  };
  switch (in.kind) {
    case Kind::Fleet: {
      Job j;
      j.output = dir + "/fleet.json";
      j.log = dir + "/fleet.log";
      j.argv = {o.fleet_bin, "--preset", "smoke", "--seed",
                std::to_string(in.seed), "--threads", threads, "--quiet",
                "--out", j.output};
      jobs.push_back(j);
      break;
    }
    case Kind::Flat:
      jobs.push_back(place_job("place"));
      break;
    case Kind::Multilevel: {
      Job j = place_job("place");
      j.argv.insert(j.argv.end(),
                    {"--ml-threshold", std::to_string(kMlThreshold)});
      jobs.push_back(j);
      break;
    }
    case Kind::Eco:
      for (size_t k = 0; k < in.windows.size(); ++k) {
        Job j = place_job("eco_" + std::to_string(k));
        j.argv.insert(j.argv.end(),
                      {"--eco-window", window_arg(in.windows[k])});
        j.window = k;
        jobs.push_back(j);
      }
      break;
  }
  return jobs;
}

/// What one job's output says, once checked.
struct Outcome {
  std::string error;          ///< empty when every check passed
  std::vector<double> hpwl;   ///< per design (fleet) or one value
  std::vector<double> ratio;  ///< hpwl / certified optimum, where known
};

bool number_field(const std::string& rec, const char* key, double& out) {
  const std::string k = std::string("\"") + key + "\": ";
  const size_t p = rec.find(k);
  if (p == std::string::npos) return false;
  const char* s = rec.c_str() + p + k.size();
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s;
}

/// Fleet records: every design legal and scored at ratio >= 1.
Outcome check_fleet(const std::string& path, const Input& in) {
  Outcome o;
  const std::string text = read_file(path);
  size_t pos = text.find("\"designs\": [");
  while (pos != std::string::npos &&
         (pos = text.find("{\"name\": ", pos)) != std::string::npos) {
    const size_t end = text.find('}', pos);
    const std::string rec = text.substr(pos, end - pos);
    pos = end;
    double h = 0.0, ratio = 0.0;
    if (!number_field(rec, "hpwl", h) || !number_field(rec, "ratio", ratio)) {
      o.error = "unreadable fleet record " + std::to_string(o.hpwl.size());
      return o;
    }
    if (rec.find("\"legal\": true") == std::string::npos && o.error.empty())
      o.error = "design " + std::to_string(o.hpwl.size()) + " is illegal";
    if (!(ratio >= 1.0) && o.error.empty())
      o.error = "design " + std::to_string(o.hpwl.size()) +
                " scores below its certified optimum";
    o.hpwl.push_back(h);
    o.ratio.push_back(ratio);
  }
  if (o.hpwl.size() != in.fleet.size() && o.error.empty())
    o.error = "expected " + std::to_string(in.fleet.size()) +
              " fleet records, found " + std::to_string(o.hpwl.size());
  return o;
}

/// A placement output, re-read against the input design: legal (flat and
/// multilevel), or every movable cell outside the window bitwise unchanged
/// (ECO, which skips legalization).
Outcome check_placement(const std::string& path, const Input& in,
                        size_t window) {
  Outcome o;
  const BookshelfDesign out = read_bookshelf_files(
      in.base + ".nodes", in.base + ".nets", in.base + ".wts", path,
      in.base + ".scl");
  const Netlist& nl = out.netlist;
  const Placement p = nl.snapshot();
  if (in.kind == Kind::Eco) {
    const Netlist& ref = in.netlist;
    const Placement centers = ref.snapshot();
    const Rect& w = in.windows[window];
    for (const CellId id : ref.movable_cells()) {
      if (w.contains(Point{centers.x[id], centers.y[id]})) continue;
      const Cell& a = ref.cell(id);
      const Cell& b = nl.cell(id);
      if (std::memcmp(&a.x, &b.x, sizeof a.x) != 0 ||
          std::memcmp(&a.y, &b.y, sizeof a.y) != 0) {
        o.error = "cell " + std::string(ref.cell_name(id)) +
                  " outside the ECO window moved";
        break;
      }
    }
  } else if (!TetrisLegalizer::is_legal(nl, p)) {
    o.error = "output placement is not legal";
  }
  o.hpwl.push_back(hpwl(nl, p));
  if (in.optimum_hpwl > 0.0) o.ratio.push_back(o.hpwl[0] / in.optimum_hpwl);
  return o;
}

Outcome check_output(const std::string& path, const Input& in,
                     size_t window) {
  try {
    return in.kind == Kind::Fleet ? check_fleet(path, in)
                                  : check_placement(path, in, window);
  } catch (const std::exception& e) {
    Outcome o;
    o.error = e.what();
    return o;
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The traced run must produce what the CLI produced, job by job, and its
/// top-level spans must account for the flow. Returns the first problem.
std::string check_traced(const TraceReport& tr, const Input& in,
                         const std::vector<Job>& jobs,
                         const std::vector<Outcome>& cli) {
  if (in.kind == Kind::Fleet) {
    if (!same_bits(tr.hpwl, cli[0].hpwl))
      return "HPWL differs from the complx_fleet records";
  } else {
    for (size_t j = 0; j < jobs.size(); ++j) {
      const Outcome o = check_output(tr.outputs[j], in, jobs[j].window);
      const std::string job = "job " + std::to_string(j) + ": ";
      if (!o.error.empty()) return job + o.error;
      if (!same_bits(o.hpwl, cli[j].hpwl))
        return job + "HPWL differs from the CLI output";
    }
  }
  if (tr.top_level_coverage < kMinTraceCoverage)
    return "top-level spans cover only " +
           std::to_string(100.0 * tr.top_level_coverage) +
           "% of the flow span";
  return "";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Spec& s : kSpecs) v.push_back(s.name);
    return v;
  }();
  return names;
}

WorkloadReport run_workload(const std::string& name, const Options& opts,
                            Spawner& spawner) {
  const Spec& spec = find_spec(name);
  WorkloadReport report;
  report.name = spec.name;
  report.why = spec.why;

  const std::string dir = opts.out_dir + "/" + name;
  const std::string in_dir = dir + "/inputs";
  const std::string job_dir = dir + "/jobs";
  fs::remove_all(dir);
  fs::create_directories(in_dir);
  fs::create_directories(job_dir);

  const Input in = make_input(spec.kind, in_dir);
  std::vector<double> setup;
  auto sample_setup = [&] {
    double spent = 0.0;
    for (size_t n = 0; n < kMinSetupPerSlice ||
                       (spent < kSetupSliceSeconds && n < kMaxSetupPerSlice);
         ++n) {
      setup.push_back(time_setup(in));
      spent += setup.back();
    }
  };
  const double t0 = now_s();
  sample_setup();

  // Closed loop, one client: each job starts when the previous one ended.
  const std::vector<Job> jobs = make_jobs(in, opts, job_dir);
  report.jobs_per_rep = jobs.size();
  std::vector<Outcome> first(jobs.size());
  std::vector<std::string> first_bytes(jobs.size());
  std::vector<double> wall, cpu, rss;
  auto fail = [&](const std::string& what) {
    ++report.failed;
    if (report.failures.size() < 20) report.failures.push_back(what);
  };
  // Later repetitions must reproduce the first one exactly. The full check
  // runs on the first; after that the output bytes are compared, except for
  // the fleet JSON, which also carries timings and is checked again.
  auto verify = [&](size_t rep, size_t j) -> std::string {
    const Job& job = jobs[j];
    if (rep > 0 && in.kind != Kind::Fleet)
      return read_file(job.output) == first_bytes[j]
                 ? first[j].error
                 : "output differs from the first repetition";
    Outcome o = check_output(job.output, in, job.window);
    if (rep == 0) {
      if (in.kind != Kind::Fleet) first_bytes[j] = read_file(job.output);
      first[j] = o;
    } else if (o.error.empty() && !same_bits(o.hpwl, first[j].hpwl)) {
      o.error = "results differ from the first repetition";
    }
    return o.error;
  };
  for (size_t rep = 0;; ++rep) {
    double rep_wall = 0.0, rep_cpu = 0.0, rep_rss = 0.0;
    for (size_t j = 0; j < jobs.size(); ++j) {
      const Job& job = jobs[j];
      fs::remove(job.output);
      const ProcResult pr = spawner.run(job.argv, job.log);
      rep_wall += pr.wall_s;
      rep_cpu += pr.cpu_s;
      rep_rss = std::max(rep_rss, pr.maxrss_mb);
      ++report.attempted;
      const std::string label =
          "rep " + std::to_string(rep) + " job " + std::to_string(j) + ": ";
      std::string error;
      if (pr.exit_code != 0) {
        error = "exit code " + std::to_string(pr.exit_code);
      } else {
        try {
          error = verify(rep, j);
        } catch (const std::exception& e) {
          error = e.what();
        }
      }
      if (!error.empty()) fail(label + error);
    }
    wall.push_back(rep_wall);
    cpu.push_back(rep_cpu);
    rss.push_back(rep_rss);
    sample_setup();
    const double elapsed = now_s() - t0;
    if (wall.size() >= opts.reps && elapsed + rep_wall > opts.seconds) break;
  }
  report.reps = wall.size();

  double total_hpwl = 0.0, log_ratio = 0.0;
  size_t ratios = 0;
  for (const Outcome& o : first) {
    for (const double h : o.hpwl) total_hpwl += h;
    for (const double r : o.ratio) log_ratio += std::log(r);
    ratios += o.ratio.size();
  }
  report.end_to_end = {
      Metric("wall_s", "s", wall),
      Metric("cpu_s", "s", cpu),
      Metric("peak_rss_mb", "MB", rss),
      Metric("setup_s", "s", setup),
      Metric("hpwl", "dbu", total_hpwl),
  };
  if (ratios > 0)
    report.quality.push_back(
        Metric("hpwl_ratio", "x",
               std::exp(log_ratio / static_cast<double>(ratios))));

  if (opts.trace) {
    ++report.attempted;
    std::string error;
    try {
      report.trace = run_traced(in, job_dir, report.end_to_end[0].value);
      error = check_traced(report.trace, in, jobs, first);
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (!error.empty()) fail("traced run: " + error);
  }
  report.quality.push_back(
      Metric("fail_rate", "fraction",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted)));

  // Inputs and outputs stay on disk only when they are evidence.
  if (report.failed == 0) fs::remove_all(dir);
  return report;
}

}  // namespace bench
