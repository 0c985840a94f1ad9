// Figure 3 / Section S3 reproduction: scalability of ComPLx — the final λ
// and the number of global placement iterations, plotted against the number
// of nets, over a size sweep.
//
// Paper's shape: neither the final λ nor the iteration count grows
// systematically with instance size (the dual variable measures a force
// balance, not problem size), and per-iteration runtime is near-linear.
// Series written to fig3_scalability.csv.
#include "common.h"
#include "util/csv.h"

using namespace complx;
using namespace complx::bench;

int main() {
  print_header(
      "FIGURE 3 / S3 — final lambda and iteration count vs number of nets",
      "final lambda stays O(1) and iteration counts do not grow with size; "
      "runtime per iteration is near-linear",
      "size sweep 1.5k..24k cells; series in fig3_scalability.csv");

  CsvWriter csv("fig3_scalability.csv",
                {"cells", "nets", "final_lambda", "iterations", "runtime_s",
                 "s_per_iter_per_knet"});

  std::printf("%8s %9s | %12s %10s %10s %18s\n", "cells", "nets",
              "final_lam", "iters", "time(s)", "ms/iter/knet");
  std::vector<double> lambdas, iters;
  double min_norm = 1e18, max_norm = 0.0;
  for (size_t cells : {1500u, 3000u, 6000u, 12000u, 24000u}) {
    GenParams prm;
    prm.name = "sweep" + std::to_string(cells);
    prm.num_cells = cells;
    prm.seed = 900 + cells;
    prm.utilization = 0.65;
    const Netlist nl = generate_circuit(prm);

    ComplxConfig cfg;
    const FlowMetrics m = run_complx_flow(nl, cfg, /*run_dp=*/false);

    const double gp_time = m.gp.runtime_s;
    const double per_iter_knet =
        1000.0 * gp_time / std::max(1, m.gp.iterations) /
        (static_cast<double>(nl.num_nets()) / 1000.0);
    std::printf("%8zu %9zu | %12.3f %10d %10.1f %18.2f\n", nl.num_cells(),
                nl.num_nets(), m.gp.returned.lambda, m.gp.iterations, gp_time,
                per_iter_knet);
    csv.row(std::vector<double>{static_cast<double>(nl.num_cells()),
                                static_cast<double>(nl.num_nets()),
                                m.gp.returned.lambda,
                                static_cast<double>(m.gp.iterations), gp_time,
                                per_iter_knet});
    lambdas.push_back(m.gp.returned.lambda);
    iters.push_back(m.gp.iterations);
    min_norm = std::min(min_norm, per_iter_knet);
    max_norm = std::max(max_norm, per_iter_knet);
  }

  // Shape check: 16x size growth; lambda and iterations should vary far
  // less than that, and normalized per-net iteration cost should be within
  // a small constant factor (near-linear runtime).
  const double lam_spread =
      *std::max_element(lambdas.begin(), lambdas.end()) /
      *std::min_element(lambdas.begin(), lambdas.end());
  const double iter_spread = *std::max_element(iters.begin(), iters.end()) /
                             *std::min_element(iters.begin(), iters.end());
  std::printf("\nShape: lambda spread %.2fx, iteration spread %.2fx over a "
              "16x size range (paper: flat);\n       per-iteration cost per "
              "net varies %.2fx (near-linear scaling).\n",
              lam_spread, iter_spread, max_norm / std::max(min_norm, 1e-12));
  return 0;
}
