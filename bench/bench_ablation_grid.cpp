// Ablation (Section 6): grid coarsening in the feasibility projection.
//
// Paper's claim: "coarsening the grid speeds up P_C without undermining
// solution quality. Thus, no interconnect optimization during P_C is
// required" — the projection does not need to be implemented precisely.
// We sweep the coarsening factor (1 = finest grid always) on one design.
#include "common.h"

using namespace complx;
using namespace complx::bench;

int main() {
  print_header(
      "ABLATION — P_C grid coarsening sweep",
      "coarser spreading grids trade nothing measurable in HPWL for "
      "meaningful projection-runtime savings (Section 6)",
      "one ISPD-2005 analogue; coarsening factor 1 (finest) to 16");

  GenParams prm;
  prm.name = "grid_ablation";
  prm.num_cells = 8000;
  prm.seed = 777;
  prm.utilization = 0.65;
  const Netlist nl = generate_circuit(prm);

  std::printf("%12s | %12s %10s %8s %8s\n", "coarsening", "legal HPWL",
              "time(s)", "iters", "ovfl");
  double base_hpwl = 0.0;
  for (double c : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    ComplxConfig cfg;
    cfg.grid_coarsening = c;
    const FlowMetrics m = run_complx_flow(nl, cfg);
    const DensityMetric& q = m.finish.metric;
    if (c == 1.0) base_hpwl = q.hpwl;
    std::printf("%12.0f | %12.0f %10.1f %8d %7.2f%%  (HPWL %+5.2f%% vs "
                "finest)\n",
                c, q.hpwl, m.runtime_s, m.gp.iterations, q.overflow_percent,
                100.0 * (q.hpwl - base_hpwl) / base_hpwl);
  }
  std::printf("\nShape: HPWL within ~1-2%% across the sweep while coarser "
              "starts run faster (paper Table 1: finest grid 1.01x HPWL at "
              "1.16x runtime).\n");
  return 0;
}
