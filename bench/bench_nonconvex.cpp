// Comparator — nonconvex analytical placement (APlace/NTUPlace3 family) vs
// ComPLx's convex-decomposition + global projection.
//
// Paper conclusions: "A key difference from analytical placement based on
// nonconvex optimization is the emphasis on decomposing the original
// problem into a series of convex optimizations, which enables duality and
// accelerates convergence... Avoiding local gradients also improves
// runtime (compared to APlace and NTUPlace3)."  Table 2 reports ComPLx
// 6.9x faster than NTUPlace3 at ~1% better scaled HPWL.
#include "common.h"
#include "baseline/nonconvex.h"

using namespace complx;
using namespace complx::bench;

int main() {
  print_header(
      "COMPARATOR — nonconvex analytical (LSE + density penalty) vs ComPLx",
      "ComPLx is several times faster at comparable (within a few %) "
      "quality — paper: 6.9x vs NTUPlace3 at 1.01x scaled HPWL",
      "full flow both sides (legalization + detailed placement shared)");

  std::printf("%-10s %8s | %12s %8s | %12s %8s %7s\n", "design", "cells",
              "complx HPWL", "t(s)", "nonconvex", "t(s)", "rounds");
  std::vector<double> h_ratio, t_ratio;
  for (uint64_t seed : {1601ull, 1602ull, 1603ull}) {
    GenParams prm;
    prm.name = "nc" + std::to_string(seed % 100);
    prm.num_cells = 5000;
    prm.seed = seed;
    prm.utilization = 0.65;
    const Netlist nl = generate_circuit(prm);

    Timer tc;
    const double cx_hpwl =
        run_complx_flow(nl, ComplxConfig{}).finish.metric.hpwl;
    const double complx_t = tc.seconds();

    Timer tn;
    NonconvexResult nc = NonconvexPlacer(nl, {}).place();
    const double nc_hpwl =
        finish_placement(nl, std::move(nc.placement)).metric.hpwl;
    const double nc_t = tn.seconds();

    std::printf("%-10s %8zu | %12.0f %8.1f | %12.0f %8.1f %7d   "
                "(nonconvex HPWL %+5.2f%%, time %4.1fx)\n",
                prm.name.c_str(), nl.num_cells(), cx_hpwl, complx_t, nc_hpwl,
                nc_t, nc.rounds, 100.0 * (nc_hpwl - cx_hpwl) / cx_hpwl,
                nc_t / complx_t);
    h_ratio.push_back(nc_hpwl / cx_hpwl);
    t_ratio.push_back(nc_t / complx_t);
  }
  std::printf("\nGeomean: nonconvex HPWL %.3fx, runtime %.2fx vs ComPLx "
              "(paper: NTUPlace3 1.01x scaled HPWL at 6.9x runtime).\n",
              geomean(h_ratio), geomean(t_ratio));
  return 0;
}
