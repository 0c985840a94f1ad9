// Routability extension bench — the SimPLR/Ripple special cases the paper
// generalizes (Section 5 and the ISPD 2011 results it cites).
//
// SimPLR's trade-off on ISPD 2011: a few percent more HPWL buys a large
// congestion reduction, purely by modifying P_C (cell inflation). We run
// ComPLx with and without the routability mode on congestion-prone designs
// and report peak/average RUDY congestion plus HPWL.
#include "common.h"
#include "route/global_router.h"
#include "route/rudy.h"

using namespace complx;
using namespace complx::bench;

int main() {
  print_header(
      "EXTENSION — routability-driven mode (SimPLR/Ripple as ComPLx configs)",
      "modifying only the feasibility projection (congestion-driven cell "
      "inflation) trades a few %% HPWL for substantially lower congestion",
      "RUDY congestion, with vs without inflation, on 3 tight designs");

  std::printf("%-8s %-9s | %9s %8s %8s | %11s %9s | %12s\n", "design",
              "mode", "peak_rudy", "avg", ">1 frac", "peak_route",
              "routed_wl", "legal HPWL");

  for (uint64_t seed : {1101ull, 1102ull, 1103ull}) {
    GenParams prm;
    prm.name = "rt" + std::to_string(seed % 100);
    prm.num_cells = 5000;
    prm.seed = seed;
    prm.utilization = 0.78;  // congestion-prone
    const Netlist nl = generate_circuit(prm);

    double base_hpwl = 0.0, base_peak = 0.0;
    for (bool routed : {false, true}) {
      ComplxConfig cfg;
      cfg.routability.enabled = routed;
      // Supply calibrated so the design is routable on average and only
      // hotspots exceed capacity (the regime SimPLR targets).
      cfg.routability.rudy.supply_per_area = 0.9;
      const FlowMetrics m = run_complx_flow(nl, cfg);

      RudyOptions score;
      score.supply_per_area = 0.9;
      CongestionMap map(nl, score);
      map.build(m.gp.anchors);

      // Ground truth: actually globally route the placement.
      RouterOptions ropts;
      ropts.edge_capacity_tracks = 14.0;
      GlobalRouter router(nl, ropts);
      const RouteStats rs = router.route(m.gp.anchors);

      if (!routed) {
        base_hpwl = m.finish.metric.hpwl;
        base_peak = map.peak_congestion();
      }
      std::printf("%-8s %-9s | %9.3f %8.3f %7.1f%% | %11.1f %9.3g | %12.0f",
                  prm.name.c_str(), routed ? "inflate" : "plain",
                  map.peak_congestion(), map.avg_congestion(),
                  100.0 * map.overcongested_fraction(1.0), rs.max_overflow,
                  rs.wirelength, m.finish.metric.hpwl);
      if (routed) {
        std::printf("  (peak %+.1f%%, HPWL %+.2f%%)",
                    100.0 * (map.peak_congestion() - base_peak) / base_peak,
                    100.0 * (m.finish.metric.hpwl - base_hpwl) / base_hpwl);
      }
      std::printf("\n");
    }
  }
  std::printf("\nShape: inflation lowers peak/overcongested-bin statistics "
              "at a small HPWL premium (SimPLR, ICCAD'11).\n");
  return 0;
}
