// Figure 4 / Section S5 reproduction: hard region constraints enforced
// through the feasibility projection.
//
// Paper's experiment: a region constraint is imposed on 50 cells that were
// initially placed unconstrained; the resulting ComPLx placement satisfies
// the constraint and HPWL actually improves slightly (143.55 -> 142.70).
// We run the same A/B: unconstrained vs constrained placement of the same
// 50 connected cells.
#include "common.h"
#include "projection/regions.h"
#include "io/svg.h"

using namespace complx;
using namespace complx::bench;

namespace {

/// Copy of `raw` with a hard region for `count` cells picked from one
/// cluster (cells sharing a net neighborhood, so the constraint is
/// realistic rather than a random scatter).
Netlist with_region(const Netlist& raw, size_t count, Rect box) {
  Netlist nl;
  const RegionId r = nl.add_region({"fig4", box});
  // Pick a seed cell and grow over net neighbours.
  std::vector<char> chosen(raw.num_cells(), 0);
  std::vector<CellId> frontier;
  for (CellId id : raw.movable_cells()) {
    if (!raw.cell(id).is_macro()) {
      frontier.push_back(id);
      chosen[id] = 1;
      break;
    }
  }
  size_t picked = 1;
  for (size_t f = 0; f < frontier.size() && picked < count; ++f) {
    for (NetId e : raw.nets_of_cell(frontier[f])) {
      const Net& net = raw.net(e);
      for (uint32_t k = 0; k < net.num_pins && picked < count; ++k) {
        const CellId c = raw.pin(net.first_pin + k).cell;
        if (chosen[c] || !raw.cell(c).movable() || raw.cell(c).is_macro())
          continue;
        chosen[c] = 1;
        ++picked;
        frontier.push_back(c);
      }
    }
  }
  for (CellId id = 0; id < raw.num_cells(); ++id) {
    Cell c = raw.cell(id);
    if (chosen[id]) c.region = r;
    nl.add_cell(c, raw.cell_name(id));
  }
  for (NetId e = 0; e < raw.num_nets(); ++e) {
    const Net& n = raw.net(e);
    std::vector<Pin> pins;
    for (uint32_t k = 0; k < n.num_pins; ++k)
      pins.push_back(raw.pin(n.first_pin + k));
    nl.add_net(raw.net_name(e), n.weight, pins);
  }
  nl.set_core(raw.core());
  nl.set_target_density(raw.target_density());
  nl.finalize();
  return nl;
}

}  // namespace

int main() {
  print_header(
      "FIGURE 4 / S5 — hard region constraint on 50 cells",
      "the constrained ComPLx placement satisfies the region and HPWL does "
      "not degrade (paper: 143.55 -> 142.70, a slight improvement)",
      "same design placed twice: unconstrained vs 50 cells locked to a box");

  GenParams prm;
  prm.name = "fig4";
  prm.num_cells = 4000;
  prm.seed = 404;
  prm.utilization = 0.55;
  const Netlist base = generate_circuit(prm);

  ComplxConfig cfg;
  const FlowMetrics before = run_complx_flow(base, cfg);

  // Box the region around where the 50 cells naturally land (a designer
  // boxes a logical cluster, not an arbitrary corner): centroid of the
  // first 50-cell net-connected cluster in the unconstrained placement.
  Netlist probe = with_region(base, 50, base.core());
  double cx = 0.0, cy = 0.0;
  size_t cnt = 0;
  for (CellId id : probe.movable_cells()) {
    if (probe.cell(id).region == kNoRegion) continue;
    cx += before.gp.anchors.x[id];
    cy += before.gp.anchors.y[id];
    ++cnt;
  }
  cx /= static_cast<double>(cnt);
  cy /= static_cast<double>(cnt);
  const double half = 0.12 * base.core().width();
  const Rect box = {std::max(base.core().xl, cx - half),
                    std::max(base.core().yl, cy - half),
                    std::min(base.core().xh, cx + half),
                    std::min(base.core().yh, cy + half)};
  const Netlist constrained = with_region(base, 50, box);

  const FlowMetrics after = run_complx_flow(constrained, cfg);

  // Region constraints bind global placement: check them on the GP anchors.
  const bool satisfied =
      regions_satisfied(constrained, after.gp.anchors, 1e-6);

  {
    SvgOptions svg;
    svg.highlight.assign(constrained.num_cells(), 0);
    for (CellId id : constrained.movable_cells())
      if (constrained.cell(id).region != kNoRegion) svg.highlight[id] = 1;
    write_placement_svg(constrained, before.gp.anchors,
                        "fig4_unconstrained.svg", svg);
    write_placement_svg(constrained, after.gp.anchors,
                        "fig4_constrained.svg", svg);
    std::printf("(before/after rendered to fig4_unconstrained.svg / "
                "fig4_constrained.svg)\n");
  }
  std::printf("unconstrained : HPWL = %12.0f (legal: %s)\n",
              before.finish.metric.hpwl,
              before.finish.is_legal ? "yes" : "no");
  std::printf("region on 50  : HPWL = %12.0f (legal: %s, region satisfied "
              "in GP anchors: %s)\n",
              after.finish.metric.hpwl, after.finish.is_legal ? "yes" : "no",
              satisfied ? "YES" : "NO");
  std::printf("\nHPWL ratio constrained/unconstrained = %.4f "
              "(paper: 142.70/143.55 = 0.994 — no degradation)\n",
              after.finish.metric.hpwl / before.finish.metric.hpwl);
  return 0;
}
