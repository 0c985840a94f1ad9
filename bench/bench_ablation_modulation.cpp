// Ablation — the force modulation problem (paper Section 3).
//
// "Local subgradient computations leave undefined the trade-off between
// demand-distribution subgradients and the gradients of the objective
// function. This force modulation problem was articulated in [RQL], but
// addressed there with ad hoc thresholding. In contrast ... our
// subgradients point to a closest C-feasible solution, and their magnitude
// is modulated by respective distance."
//
// We run the identical ComPLx loop with three anchor-force laws:
//   * distance-normalized  w = λ/(d+ε)       (ComPLx — parameter-free)
//   * fixed spring         w = λ/ε           (force ∝ d, unbounded)
//   * thresholded spring   (RQL-style cap at T rows, for several T)
// The principled law should match or beat every hand-tuned variant, and
// the thresholded results should visibly depend on the arbitrary T.
#include "common.h"

using namespace complx;
using namespace complx::bench;

int main() {
  print_header(
      "ABLATION — anchor force modulation (Section 3's core argument)",
      "distance-normalized subgradient magnitudes need no tuning; "
      "fixed springs over-pull distant cells; thresholded springs work "
      "only with a well-chosen, instance-dependent cap",
      "same loop, same schedule; only the anchor-weight law changes");

  std::printf("%-10s %-18s | %12s %8s %8s\n", "design", "modulation",
              "legal HPWL", "iters", "ovfl%");
  std::vector<std::vector<double>> deviations(5);
  const char* scheme_names[5] = {"normalized", "fixed", "thresh T=2",
                                 "thresh T=10", "thresh T=50"};
  for (uint64_t seed : {1401ull, 1402ull, 1403ull, 1404ull}) {
    GenParams prm;
    prm.name = "mod" + std::to_string(seed % 100);
    prm.num_cells = 5000;
    prm.seed = seed;
    prm.utilization = 0.65;
    const Netlist nl = generate_circuit(prm);

    struct Entry {
      const char* name;
      AnchorModulation mod;
      double t_rows;
    };
    const Entry entries[] = {
        {"normalized", AnchorModulation::DistanceNormalized, 0.0},
        {"fixed", AnchorModulation::Fixed, 0.0},
        {"thresh T=2", AnchorModulation::Thresholded, 2.0},
        {"thresh T=10", AnchorModulation::Thresholded, 10.0},
        {"thresh T=50", AnchorModulation::Thresholded, 50.0},
    };
    double base = 0.0;
    for (const Entry& e : entries) {
      ComplxConfig cfg;
      cfg.modulation = e.mod;
      cfg.threshold_rows = e.t_rows;
      const FlowMetrics m = run_complx_flow(nl, cfg);
      const DensityMetric& q = m.finish.metric;
      if (e.mod == AnchorModulation::DistanceNormalized) base = q.hpwl;
      std::printf("%-10s %-18s | %12.0f %8d %7.2f%%  (%+6.2f%%)\n",
                  prm.name.c_str(), e.name, q.hpwl, m.gp.iterations,
                  q.overflow_percent, 100.0 * (q.hpwl - base) / base);
      deviations[static_cast<size_t>(&e - entries)].push_back(
          100.0 * (q.hpwl - base) / base);
    }
  }
  std::printf("\nConsistency (mean |deviation from normalized| across "
              "seeds):\n");
  for (size_t k = 1; k < 5; ++k) {
    double mad = 0.0;
    for (double d : deviations[k]) mad += std::abs(d);
    mad /= static_cast<double>(deviations[k].size());
    std::printf("  %-12s %5.2f%%\n", scheme_names[k], mad);
  }
  std::printf("Shape: the distance-normalized law is parameter-free and "
              "run-to-run consistent; springs and thresholds land a few "
              "percent off in either direction depending on the instance "
              "and the hand-picked cap — the ad-hoc-ness Section 3 calls "
              "out.\n");
  return 0;
}
