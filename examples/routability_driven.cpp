// Routability-driven placement example: the SimPLR/Ripple usage of ComPLx.
//   1. place wirelength-driven, estimate congestion (RUDY) and globally
//      route the result;
//   2. re-place with the routability mode (congestion-driven cell inflation
//      inside the feasibility projection);
//   3. compare peak congestion, routed overflow and HPWL.
#include <cstdio>

#include "core/flow.h"
#include "core/placer.h"
#include "gen/generator.h"
#include "route/global_router.h"
#include "route/rudy.h"
#include "util/log.h"

using namespace complx;

namespace {

struct Outcome {
  double peak_rudy;
  double routed_peak_overflow;
  double routed_wirelength;
  double legal_hpwl;
};

Outcome run(const Netlist& nl, bool routability) {
  ComplxConfig config;
  config.routability.enabled = routability;
  config.routability.rudy.supply_per_area = 0.9;
  ComplxPlacer placer(nl, config);
  const PlaceResult gp = placer.place();

  RudyOptions score;
  score.supply_per_area = 0.9;
  CongestionMap congestion(nl, score);
  congestion.build(gp.anchors);

  RouterOptions ropts;
  ropts.edge_capacity_tracks = 14.0;
  GlobalRouter router(nl, ropts);
  const RouteStats routed = router.route(gp.anchors);

  return {congestion.peak_congestion(), routed.max_overflow,
          routed.wirelength, finish_placement(nl, gp.anchors).metric.hpwl};
}

}  // namespace

int main() {
  set_log_level(LogLevel::Info);

  GenParams params;
  params.name = "routability";
  params.num_cells = 6000;
  params.seed = 31;
  params.utilization = 0.78;  // tight: congestion-prone
  const Netlist netlist = generate_circuit(params);
  std::printf("design: %zu cells at %.0f%% utilization\n",
              netlist.num_cells(), 100 * 0.78);

  const Outcome plain = run(netlist, false);
  std::printf("wirelength-driven : peak RUDY %.2f | routed peak overflow "
              "%.0f | routed WL %.3g | HPWL %.0f\n",
              plain.peak_rudy, plain.routed_peak_overflow,
              plain.routed_wirelength, plain.legal_hpwl);

  const Outcome routed = run(netlist, true);
  std::printf("routability-driven: peak RUDY %.2f | routed peak overflow "
              "%.0f | routed WL %.3g | HPWL %.0f\n",
              routed.peak_rudy, routed.routed_peak_overflow,
              routed.routed_wirelength, routed.legal_hpwl);

  std::printf("\ncongestion peak %+0.1f%%, HPWL %+0.2f%% — the SimPLR "
              "trade-off: routing health for a small wirelength premium.\n",
              100.0 * (routed.peak_rudy - plain.peak_rudy) / plain.peak_rudy,
              100.0 * (routed.legal_hpwl - plain.legal_hpwl) /
                  plain.legal_hpwl);
  return 0;
}
