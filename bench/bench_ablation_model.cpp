// Ablation (Sections 3, S1): interconnect-model agnosticism.
//
// ComPLx's Lagrangian accepts any convex interconnect model Φ. We run the
// identical primal-dual loop with four models: linearized-quadratic B2B
// (default), linearized clique, fixed-center star, and log-sum-exp
// minimized by nonlinear CG. All must converge to comparable quality; B2B
// is expected to lead (it tracks HPWL exactly at each linearization).
#include "common.h"

using namespace complx;
using namespace complx::bench;

int main() {
  print_header(
      "ABLATION — interconnect models: B2B / clique / star / log-sum-exp",
      "any convex model plugs into the same Lagrangian (Sections 3, S1); "
      "quality is comparable across models",
      "one design, identical loop; LSE uses nonlinear CG for the primal "
      "step");

  GenParams prm;
  prm.name = "model_ablation";
  prm.num_cells = 4000;
  prm.seed = 909;
  prm.utilization = 0.6;
  const Netlist nl = generate_circuit(prm);

  std::printf("%-14s | %12s %8s %10s %8s\n", "model", "legal HPWL", "iters",
              "time(s)", "ovfl%");
  double base = 0.0;

  struct Entry {
    const char* name;
    NetModel model;
    bool lse;
  };
  const Entry entries[] = {
      {"b2b", NetModel::B2B, false},
      {"clique", NetModel::Clique, false},
      {"star", NetModel::Star, false},
      {"log-sum-exp", NetModel::B2B, true},
  };
  for (const Entry& e : entries) {
    ComplxConfig cfg;
    cfg.qp.model = e.model;
    cfg.use_lse = e.lse;
    if (e.lse) cfg.max_iterations = 80;
    const FlowMetrics m = run_complx_flow(nl, cfg);
    const DensityMetric& q = m.finish.metric;
    if (base == 0.0) base = q.hpwl;
    std::printf("%-14s | %12.0f %8d %10.1f %7.2f  (%+6.2f%% vs b2b)\n",
                e.name, q.hpwl, m.gp.iterations, m.runtime_s,
                q.overflow_percent, 100.0 * (q.hpwl - base) / base);
  }
  return 0;
}
