#include "gen/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/flow.h"
#include "core/placer.h"
#include "io/experience.h"
#include "util/atomic_file.h"
#include "util/timer.h"
#include "wl/hpwl.h"

namespace complx {

const char* to_string(FleetPreset preset) {
  switch (preset) {
    case FleetPreset::Gate: return "gate";
    case FleetPreset::Smoke: return "smoke";
  }
  return "?";
}

std::vector<PekoParams> fleet_designs(FleetPreset preset, uint64_t base_seed) {
  struct AxisSpec {
    std::vector<size_t> cells;
    std::vector<double> utils;
    std::vector<size_t> macros;
    size_t seeds = 1;
  };
  // Gate: 1x2x2x5 = 20 tiny designs (256 cells each) — seconds per fleet
  // run, small enough to execute twice inside a ctest. Smoke: 3x3x2x2 = 36
  // designs to 2304 cells across all three axes — the BENCH_quality.json
  // trajectory entry.
  const AxisSpec axis =
      preset == FleetPreset::Gate
          ? AxisSpec{{256}, {0.55, 0.75}, {0, 2}, 5}
          : AxisSpec{{256, 1024, 2304}, {0.50, 0.70, 0.85}, {0, 4}, 2};

  std::vector<PekoParams> designs;
  uint64_t salt = 0;
  for (const size_t cells : axis.cells) {
    for (const double util : axis.utils) {
      for (const size_t macros : axis.macros) {
        for (size_t s = 0; s < axis.seeds; ++s) {
          PekoParams p;
          p.num_cells = cells;
          p.utilization = util;
          p.num_fixed_macros = macros;
          p.seed = base_seed + 7919 * (salt++);
          char name[96];
          std::snprintf(name, sizeof name, "peko_c%zu_u%02d_m%zu_s%llu",
                        cells, static_cast<int>(std::lround(util * 100.0)),
                        macros,
                        static_cast<unsigned long long>(p.seed));
          p.name = name;
          designs.push_back(std::move(p));
        }
      }
    }
  }
  return designs;
}

FleetRecord run_fleet_design(const PekoParams& params,
                             const FleetRunOptions& opts) {
  Timer timer;
  const PekoDesign design = generate_peko(params);
  const Netlist& nl = design.netlist;

  ComplxConfig cfg;
  cfg.max_iterations = opts.max_iterations;
  cfg.density_backend = opts.density_backend;
  cfg.threads = opts.threads;
  std::optional<Placement> start;
  if (opts.warm_start && opts.experience)
    start = opts.experience->resume_point(nl);
  ComplxPlacer placer(nl, cfg);
  const PlaceResult gp = start ? placer.resume(*start) : placer.place();

  // Record the best usable GLOBAL placement (the anchors a warm start
  // resumes from), before legalization/DP bake in row snapping.
  if (opts.experience && opts.save_experience && recordable(gp))
    opts.experience->record(nl, gp.anchors, weighted_hpwl(nl, gp.anchors),
                            gp.iterations);

  const FinishResult fin =
      finish_placement(nl, gp.anchors, {.detailed = opts.detailed});

  FleetRecord r;
  r.name = params.name;
  r.seed = params.seed;
  r.cells = design.cells;
  r.movable = nl.num_movable();
  r.nets = nl.num_nets();
  r.macros = design.macros_placed;
  r.utilization = design.achieved_utilization;
  r.optimum_hpwl = design.optimum_hpwl;
  r.hpwl = fin.metric.hpwl;
  r.ratio = r.hpwl / design.optimum_hpwl;
  r.overflow_percent = fin.metric.overflow_percent;
  r.legal = fin.is_legal;
  r.iterations = gp.iterations;
  r.warm_started = start.has_value();
  r.wall_s = opts.record_timing ? timer.seconds() : 0.0;
  r.stop = gp.stop;
  r.recoveries = gp.recovered;
  return r;
}

FleetSummary summarize_fleet(const std::vector<FleetRecord>& records) {
  FleetSummary s;
  s.designs = records.size();
  if (records.empty()) return s;
  double log_sum = 0.0;
  for (const FleetRecord& r : records) {
    log_sum += std::log(r.ratio);
    s.max_ratio = std::max(s.max_ratio, r.ratio);
    s.mean_overflow_percent += r.overflow_percent;
    s.total_wall_s += r.wall_s;
    if (!r.legal) ++s.illegal;
    if (r.warm_started) ++s.warm_started;
  }
  s.geomean_ratio = std::exp(log_sum / static_cast<double>(records.size()));
  s.mean_overflow_percent /= static_cast<double>(records.size());
  return s;
}

namespace {

/// printf-style formatting into an ostream: keeps the exact %.17g record
/// layout the gate scripts parse while composing through AtomicFileWriter.
/// The buffer is sized from a measuring pass, so long lines are never cut.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void jf(std::ostream& os, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list measure;
  va_copy(measure, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  std::string buf(static_cast<size_t>(std::max(n, 0)) + 1, '\0');
  std::vsnprintf(buf.data(), buf.size(), fmt, ap);
  va_end(ap);
  buf.pop_back();  // the terminating NUL
  os << buf;
}

/// `s` as the body of a JSON string literal: quote, backslash and control
/// characters escaped, every other byte (including UTF-8) passed through.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
      out += esc;
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

void write_fleet_run_json(const std::string& path, const std::string& label,
                          const std::string& preset,
                          const FleetRunOptions& opts,
                          const std::vector<FleetRecord>& records) {
  AtomicFileWriter writer(path);
  std::ostream& f = writer.stream();
  const FleetSummary s = summarize_fleet(records);
  jf(f, "{\n");
  jf(f, "  \"schema_version\": 1,\n");
  jf(f, "  \"kind\": \"peko_fleet_run\",\n");
  jf(f, "  \"label\": \"%s\",\n", json_escape(label).c_str());
  jf(f, "  \"preset\": \"%s\",\n", json_escape(preset).c_str());
  jf(f,
     "  \"config\": {\"max_iterations\": %d, \"threads\": %zu, "
     "\"detailed\": %s, \"warm_start\": %s, \"save_experience\": %s, "
     "\"density_backend\": \"%s\"},\n",
     opts.max_iterations, opts.threads, opts.detailed ? "true" : "false",
     opts.warm_start ? "true" : "false",
     opts.save_experience ? "true" : "false",
     json_escape(opts.density_backend).c_str());
  jf(f, "  \"designs\": [\n");
  for (size_t k = 0; k < records.size(); ++k) {
    const FleetRecord& r = records[k];
    jf(f,
       "    {\"name\": \"%s\", \"seed\": %llu, \"cells\": %zu, "
       "\"movable\": %zu, \"nets\": %zu, \"macros\": %zu, "
       "\"utilization\": %.17g, \"optimum_hpwl\": %.17g, \"hpwl\": %.17g, "
       "\"ratio\": %.17g, \"overflow_percent\": %.17g, \"legal\": %s, "
       "\"iterations\": %d, \"warm_started\": %s, \"wall_s\": %.6g, "
       "\"stop\": \"%s\", \"recoveries\": %d}%s\n",
       json_escape(r.name).c_str(), static_cast<unsigned long long>(r.seed),
       r.cells,
       r.movable, r.nets, r.macros, r.utilization, r.optimum_hpwl, r.hpwl,
       r.ratio, r.overflow_percent, r.legal ? "true" : "false", r.iterations,
       r.warm_started ? "true" : "false", r.wall_s, to_string(r.stop),
       r.recoveries, k + 1 < records.size() ? "," : "");
  }
  jf(f, "  ],\n");
  jf(f,
     "  \"summary\": {\"designs\": %zu, \"illegal\": %zu, "
     "\"warm_started\": %zu, \"geomean_ratio\": %.17g, \"max_ratio\": %.17g, "
     "\"mean_overflow_percent\": %.17g, \"total_wall_s\": %.6g}\n",
     s.designs, s.illegal, s.warm_started, s.geomean_ratio, s.max_ratio,
     s.mean_overflow_percent, s.total_wall_s);
  jf(f, "}\n");
  writer.commit();
}

}  // namespace complx
