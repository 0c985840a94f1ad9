// Shared harness code for the experiment benches: standard flows
// (global placement -> legalization -> detailed placement), metric
// collection and table formatting.
//
// Every bench prints a self-contained report: what the paper's artifact
// shows, what this reproduction measures, and the regenerated rows.
// Figures additionally write CSV series next to the binary.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/fastplace_style.h"
#include "core/placer.h"
#include "density/metric.h"
#include "dp/detailed.h"
#include "gen/suites.h"
#include "legal/tetris.h"
#include "util/stats.h"
#include "util/timer.h"
#include "wl/hpwl.h"

namespace complx::bench {

/// Result of one full placement flow on one design.
struct FlowMetrics {
  double legal_hpwl = 0.0;     ///< HPWL after legalization + DP
  double scaled_hpwl = 0.0;    ///< contest metric (HPWL × overflow penalty)
  double overflow_percent = 0.0;
  double runtime_s = 0.0;      ///< total flow wall time
  int gp_iterations = 0;
  double final_lambda = 0.0;
  bool legal = false;
  PlaceResult gp;  ///< raw global-placement result (trace etc.)
};

/// ComPLx flow: place -> legalize anchors -> detailed placement.
inline FlowMetrics run_complx_flow(const Netlist& nl, const ComplxConfig& cfg,
                                   bool run_dp = true) {
  Timer timer;
  FlowMetrics m;
  ComplxPlacer placer(nl, cfg);
  m.gp = placer.place();
  Placement p = m.gp.anchors;
  TetrisLegalizer(nl).legalize(p);
  if (run_dp) DetailedPlacer(nl).refine(p);
  m.runtime_s = timer.seconds();
  m.legal = TetrisLegalizer::is_legal(nl, p);
  m.legal_hpwl = hpwl(nl, p);
  const DensityMetric dm = evaluate_scaled_hpwl(nl, p);
  m.scaled_hpwl = dm.scaled_hpwl;
  m.overflow_percent = dm.overflow_percent;
  m.gp_iterations = m.gp.iterations;
  m.final_lambda = m.gp.final_lambda;
  return m;
}

/// FastPlace-style baseline flow with the same post-processing.
inline FlowMetrics run_baseline_flow(const Netlist& nl) {
  Timer timer;
  FlowMetrics m;
  FastPlaceStylePlacer placer(nl);
  FastPlaceResult gp = placer.place();
  Placement p = std::move(gp.placement);
  TetrisLegalizer(nl).legalize(p);
  DetailedPlacer(nl).refine(p);
  m.runtime_s = timer.seconds();
  m.legal = TetrisLegalizer::is_legal(nl, p);
  m.legal_hpwl = hpwl(nl, p);
  const DensityMetric dm = evaluate_scaled_hpwl(nl, p);
  m.scaled_hpwl = dm.scaled_hpwl;
  m.overflow_percent = dm.overflow_percent;
  m.gp_iterations = gp.iterations;
  return m;
}

/// Installs Table 1's "P_C += FastPlace-DP" behaviour: every projection
/// result is post-processed by legalization and a light detailed-placement
/// pass before being used as anchors. `nl` must outlive the placer.
inline void install_dp_hook(ComplxPlacer& placer, const Netlist& nl) {
  placer.set_post_projection_hook([&nl](Placement& anchors) {
    TetrisLegalizer(nl).legalize(anchors);
    DetailedOptions dopt;
    dopt.max_passes = 1;
    dopt.local_reorder = false;  // light pass, as a per-iteration refiner
    DetailedPlacer(nl, dopt).refine(anchors);
  });
}

inline FlowMetrics run_complx_dp_hook_flow(const Netlist& nl,
                                           const ComplxConfig& cfg) {
  Timer timer;
  FlowMetrics m;
  ComplxPlacer placer(nl, cfg);
  install_dp_hook(placer, nl);
  m.gp = placer.place();
  Placement p = m.gp.anchors;
  TetrisLegalizer(nl).legalize(p);
  DetailedPlacer(nl).refine(p);
  m.runtime_s = timer.seconds();
  m.legal = TetrisLegalizer::is_legal(nl, p);
  m.legal_hpwl = hpwl(nl, p);
  const DensityMetric dm = evaluate_scaled_hpwl(nl, p);
  m.scaled_hpwl = dm.scaled_hpwl;
  m.overflow_percent = dm.overflow_percent;
  m.gp_iterations = m.gp.iterations;
  m.final_lambda = m.gp.final_lambda;
  return m;
}

inline void print_header(const char* artifact, const char* paper_claim,
                         const char* note) {
  std::printf("\n============================================================"
              "====================\n");
  std::printf("%s\n", artifact);
  std::printf("Paper: %s\n", paper_claim);
  std::printf("Here:  %s\n", note);
  std::printf("=============================================================="
              "==================\n");
}

}  // namespace complx::bench
