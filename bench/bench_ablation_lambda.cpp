// Ablation (Section 4 / 6): λ scheduling.
//
// The paper attributes ComPLx's edge over SimPL to "the refined convergence
// criterion and improved scheduling of λ". We compare:
//   * Formula 12 (ComPLx): capped geometric-then-linear growth,
//   * SimPL's fixed linear ramp,
//   * naive doubling (converges fastest but overshoots: quality risk).
#include "common.h"

using namespace complx;
using namespace complx::bench;

int main() {
  print_header(
      "ABLATION — lambda schedule: Formula 12 vs SimPL ramp vs doubling",
      "Formula 12 converges in fewer iterations than the fixed ramp at "
      "equal-or-better HPWL; naive doubling is fast but hurts quality",
      "two designs x three schedules; gap criterion enabled for all");

  std::printf("%-10s %-12s | %12s %8s %10s %12s\n", "design", "schedule",
              "legal HPWL", "iters", "time(s)", "final lam");
  for (uint64_t seed : {881ull, 882ull}) {
    GenParams prm;
    prm.name = "lam" + std::to_string(seed % 100);
    prm.num_cells = 6000;
    prm.seed = seed;
    prm.utilization = 0.65;
    const Netlist nl = generate_circuit(prm);

    struct Entry {
      const char* name;
      ScheduleKind kind;
      double h_factor;
    };
    const Entry entries[] = {
        {"formula12", ScheduleKind::ComplxFormula12, 1.0},
        {"simpl-ramp", ScheduleKind::SimplLinearRamp, 1.0},
        {"doubling", ScheduleKind::NaiveDoubling, 1.0},
    };
    double base = 0.0;
    for (const Entry& e : entries) {
      ComplxConfig cfg;
      cfg.schedule = e.kind;
      cfg.h_factor = e.h_factor;
      const FlowMetrics m = run_complx_flow(nl, cfg);
      const double h = m.finish.metric.hpwl;
      if (e.kind == ScheduleKind::ComplxFormula12) base = h;
      std::printf("%-10s %-12s | %12.0f %8d %10.1f %12.3f  (%+5.2f%%)\n",
                  prm.name.c_str(), e.name, h, m.gp.iterations, m.runtime_s,
                  m.gp.returned.lambda, 100.0 * (h - base) / base);
    }
  }
  return 0;
}
