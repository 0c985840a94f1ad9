// Quickstart: generate a small circuit, run the full ComPLx flow (global
// placement -> legalization -> detailed placement), and report quality.
//
//   ./quickstart [num_cells] [seed]
//
// This is the 30-second tour of the public API; see mixed_size_soc.cpp,
// region_constraints.cpp and timing_driven.cpp for the advanced features.
#include <cstdio>
#include <cstdlib>

#include "core/flow.h"
#include "core/placer.h"
#include "gen/generator.h"
#include "util/log.h"
#include "wl/hpwl.h"

using namespace complx;

int main(int argc, char** argv) {
  set_log_level(LogLevel::Info);
  const size_t cells = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 5000;
  const uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  // 1. A synthetic circuit (use bookshelf::read_bookshelf for real designs).
  GenParams params;
  params.name = "quickstart";
  params.num_cells = cells;
  params.seed = seed;
  params.utilization = 0.65;
  const Netlist netlist = generate_circuit(params);
  std::printf("circuit: %zu cells, %zu nets, %zu pins, core %.0fx%.0f\n",
              netlist.num_cells(), netlist.num_nets(), netlist.num_pins(),
              netlist.core().width(), netlist.core().height());

  // 2. Global placement with the default ComPLx configuration.
  ComplxConfig config;
  ComplxPlacer placer(netlist, config);
  const PlaceResult gp = placer.place();
  std::printf("global placement: %d iterations, final lambda %.3f, "
              "overflow %.1f%%, duality gap %.1f%%\n",
              gp.iterations, gp.returned.lambda,
              100.0 * gp.returned.overflow_ratio,
              100.0 * gp.returned.gap);
  std::printf("  lower-bound HPWL %.0f | anchor (upper-bound) HPWL %.0f\n",
              hpwl(netlist, gp.lower_bound), hpwl(netlist, gp.anchors));

  // 3. The finish step: legalize the anchor placement (the C-feasible
  //    iterate), refine it with detailed placement, and score it.
  const FinishResult fin = finish_placement(netlist, gp.anchors);
  const LegalizeResult& legal = fin.legal;
  std::printf("legalization: %zu cells placed, avg displacement %.1f\n",
              legal.placed,
              legal.total_displacement /
                  static_cast<double>(std::max<size_t>(legal.placed, 1)));
  if (fin.dp) {
    const DetailedResult& dp = *fin.dp;
    std::printf("detailed placement: HPWL %.0f -> %.0f (%.2f%% gain), "
                "%d passes\n",
                dp.initial_hpwl, dp.final_hpwl,
                100.0 * (dp.initial_hpwl - dp.final_hpwl) / dp.initial_hpwl,
                dp.passes);
  }
  std::printf("final legal placement: HPWL %.0f, legal: %s\n",
              fin.metric.hpwl, fin.is_legal ? "yes" : "NO");
  return 0;
}
