// Timing-driven placement example (Section 5, Formula 13, and S6):
//   1. place once, run static timing analysis,
//   2. raise net weights on critical nets (slack-based) and raise the
//      per-cell criticality vector that scales the Lagrangian penalty,
//   3. re-place and compare worst slack / critical-path length / HPWL.
#include <cstdio>

#include "core/flow.h"
#include "core/placer.h"
#include "gen/generator.h"
#include "timing/sta.h"
#include "timing/weighting.h"
#include "util/log.h"
#include "wl/hpwl.h"

using namespace complx;

int main() {
  set_log_level(LogLevel::Info);

  GenParams params;
  params.name = "timing";
  params.num_cells = 6000;
  params.seed = 21;
  params.utilization = 0.6;
  Netlist netlist = generate_circuit(params);

  const std::vector<char> registers = choose_registers(netlist, 0.12, 7);
  TimingOptions topts;
  topts.wire_delay_per_unit = 0.02;
  TimingGraph timing(netlist, registers, topts);

  auto place = [&]() {
    ComplxConfig config;
    ComplxPlacer placer(netlist, config);
    return placer.place();
  };

  // ---- pass 1: wirelength-driven ---------------------------------------
  const PlaceResult first = place();
  TimingReport rep1 = timing.analyze(first.anchors);
  const auto path1 = timing.critical_path(first.anchors, rep1);
  std::printf("pass 1 (WL-driven):    period %.2f, worst slack %+.2f, "
              "violations %zu, critical path %zu cells, HPWL %.0f\n",
              rep1.period, rep1.worst_slack, rep1.violations, path1.size(),
              hpwl(netlist, first.anchors));

  // ---- pass 2: timing-driven re-placement --------------------------------
  // Freeze the measured period as the constraint so slacks are comparable.
  TimingOptions fixed = topts;
  fixed.period = 0.92 * rep1.period;  // demand 8% faster than achieved
  TimingGraph constrained(netlist, registers, fixed);
  TimingReport tight = constrained.analyze(first.anchors);
  std::printf("tightened period %.2f: %zu violating cells\n", fixed.period,
              tight.violations);

  slack_based_net_weights(netlist, tight, /*strength=*/4.0);
  Vec criticality(netlist.num_cells(), 1.0);
  update_criticality(criticality, tight, /*delta=*/0.5);

  ComplxConfig config;
  ComplxPlacer placer(netlist, config);
  placer.set_cell_criticality(criticality);  // Formula 13 penalty scaling
  const PlaceResult second = placer.place();

  TimingReport rep2 = constrained.analyze(second.anchors);
  std::printf("pass 2 (timing-driven): worst slack %+.2f (was %+.2f), "
              "violations %zu (was %zu), HPWL %.0f\n",
              rep2.worst_slack, tight.worst_slack, rep2.violations,
              tight.violations, hpwl(netlist, second.anchors));

  // ---- finish the flow ---------------------------------------------------
  const FinishResult fin = finish_placement(netlist, second.anchors);
  TimingReport final_rep = constrained.analyze(fin.placement);
  std::printf("final legal placement: worst slack %+.2f, HPWL %.0f, "
              "legal: %s\n",
              final_rep.worst_slack, fin.metric.hpwl,
              fin.is_legal ? "yes" : "NO");
  return 0;
}
