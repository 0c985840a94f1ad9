// Shared harness code for the experiment benches: standard flows
// (global placement, then finish_placement: legalization -> detailed
// placement -> scoring), metric collection and table formatting. A flow's
// runtime column covers global placement and the whole finish step,
// including its one scoring pass.
//
// Every bench prints a self-contained report: what the paper's artifact
// shows, what this reproduction measures, and the regenerated rows.
// Figures additionally write CSV series next to the binary.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/fastplace_style.h"
#include "core/flow.h"
#include "core/placer.h"
#include "gen/suites.h"
#include "util/stats.h"
#include "util/timer.h"
#include "wl/hpwl.h"

namespace complx::bench {

/// Result of one full placement flow on one design.
struct FlowMetrics {
  PlaceResult gp;         ///< ComPLx global placement (empty for baselines)
  FinishResult finish;    ///< legalized (+DP) placement and its score
  double runtime_s = 0.0; ///< total flow wall time
};

/// ComPLx flow: place -> finish_placement.
inline FlowMetrics run_complx_flow(const Netlist& nl, const ComplxConfig& cfg,
                                   bool run_dp = true) {
  Timer timer;
  FlowMetrics m;
  m.gp = ComplxPlacer(nl, cfg).place();
  m.finish = finish_placement(nl, m.gp.anchors, {.detailed = run_dp});
  m.runtime_s = timer.seconds();
  return m;
}

/// FastPlace-style baseline flow with the same finish step.
inline FlowMetrics run_baseline_flow(const Netlist& nl) {
  Timer timer;
  FlowMetrics m;
  m.finish = finish_placement(nl, FastPlaceStylePlacer(nl).place().placement);
  m.runtime_s = timer.seconds();
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
  m.finish = finish_placement(nl, m.gp.anchors);
  m.runtime_s = timer.seconds();
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
