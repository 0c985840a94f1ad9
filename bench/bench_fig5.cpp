// Figure 5 / Section S6 reproduction: shortening timing-critical paths by
// net weighting, on the BIGBLUE1 analogue.
//
// Paper's protocol: run 30 global iterations to get a stable intermediate
// placement, select three critical register-to-register paths, raise the
// weights of their nets (x1 -> x20 -> x40), re-run to completion. The paths
// shrink markedly while total legal HPWL is essentially unchanged
// (94.15e6 vs 94.13e6 in the paper).
#include "common.h"
#include "timing/sta.h"
#include "timing/weighting.h"

using namespace complx;
using namespace complx::bench;

int main() {
  const size_t scale = bench_scale_from_env(60);
  print_header(
      "FIGURE 5 / S6 — critical-path net weighting (BIGBLUE1 analogue)",
      "raising selected path-net weights (1 -> 20 -> 40) straightens and "
      "shrinks those paths with no tangible total-HPWL overhead",
      "3 critical reg-to-reg paths from STA; per-weight path length + HPWL");

  const auto suite = ispd2005_suite(scale);
  Netlist nl = generate_circuit(suite[4].params);  // BIGBLUE1 analogue

  // Stable intermediate placement for path selection (paper: 30 iterations).
  ComplxConfig warm_cfg;
  warm_cfg.max_iterations = 30;
  warm_cfg.min_iterations = 30;
  const PlaceResult warm = ComplxPlacer(nl, warm_cfg).place();

  // Select three disjoint critical paths via STA.
  const std::vector<char> regs = choose_registers(nl, 0.10, 55);
  TimingGraph tg(nl, regs, {});
  std::vector<std::vector<NetId>> paths;
  std::vector<NetId> all_path_nets;
  {
    TimingReport rep = tg.analyze(warm.anchors);
    // Endpoints ordered by slack; extract a path from each until three
    // disjoint ones are collected.
    std::vector<CellId> endpoints;
    for (CellId c = 0; c < nl.num_cells(); ++c)
      if (regs[c] && nl.cell(c).movable()) endpoints.push_back(c);
    std::sort(endpoints.begin(), endpoints.end(), [&](CellId a, CellId b) {
      return rep.slack[a] < rep.slack[b];
    });
    std::vector<char> used(nl.num_cells(), 0);
    for (CellId ep : endpoints) {
      if (paths.size() >= 3) break;
      rep.worst_endpoint = ep;
      const auto path = tg.critical_path(warm.anchors, rep);
      bool fresh = path.size() >= 3;
      for (CellId c : path) fresh = fresh && !used[c];
      if (!fresh) continue;
      for (CellId c : path) used[c] = 1;
      paths.push_back(tg.path_nets(path));
      for (NetId e : paths.back()) all_path_nets.push_back(e);
    }
  }
  std::printf("selected %zu paths covering %zu nets\n\n", paths.size(),
              all_path_nets.size());

  auto path_length = [&](const Placement& p) {
    double s = 0.0;
    for (NetId e : all_path_nets) s += net_hpwl(nl, p, e);
    return s;
  };

  std::printf("%10s | %14s | %14s | %10s\n", "net weight", "path length",
              "legal HPWL", "iters");
  double base_hpwl = 0.0, base_path = 0.0;
  for (double w : {1.0, 20.0, 40.0}) {
    // Apply weights to a fresh copy of the weights.
    for (NetId e = 0; e < nl.num_nets(); ++e) nl.net(e).weight = 1.0;
    if (w != 1.0) scale_net_weights(nl, all_path_nets, w);

    // Fixed iteration budget for all three configurations so the HPWL
    // comparison isolates the weighting effect (not stopping variance).
    ComplxConfig cfg;
    cfg.max_iterations = 45;
    cfg.min_iterations = 45;
    const FlowMetrics m = run_complx_flow(nl, cfg);
    Placement final_p = m.gp.anchors;  // path length measured pre-DP too
    const double plen = path_length(final_p);
    const double h = m.finish.metric.hpwl;
    std::printf("%10.0f | %14.0f | %14.0f | %10d\n", w, plen, h,
                m.gp.iterations);
    if (w == 1.0) {
      base_hpwl = h;
      base_path = plen;
    } else {
      std::printf("%10s   path %.1f%% of baseline, HPWL %+.2f%%\n", "",
                  100.0 * plen / base_path,
                  100.0 * (h - base_hpwl) / base_hpwl);
    }
  }
  std::printf("\n(paper: path lengths shrink visibly; HPWL 94.15e6 -> "
              "94.13e6, i.e. ~0.02%% change)\n");
  return 0;
}
