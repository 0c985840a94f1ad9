// Stability / incremental placement bench (Section S6's closing
// observation: the Figure 5 experiment "also demonstrates the stability of
// ComPLx to small netlist changes, which is important in the context of
// physical synthesis [1]").
//
// Protocol: place a design; perturb its netlist by adding 1% new nets (an
// ECO-like change); re-place (a) warm-started from the previous solution
// and (b) from scratch. Stability = small average displacement under the
// warm restart at comparable HPWL.
#include "common.h"
#include "util/rng.h"

using namespace complx;
using namespace complx::bench;

namespace {

/// Copy of `raw` with `extra` additional random 2-3 pin nets, positions
/// initialized from `positions`.
Netlist perturb(const Netlist& raw, const Placement& positions, size_t extra,
                uint64_t seed) {
  Rng rng(seed);
  Netlist nl;
  for (CellId id = 0; id < raw.num_cells(); ++id) {
    Cell c = raw.cell(id);
    if (c.movable()) {
      c.x = positions.x[id] - c.width / 2.0;
      c.y = positions.y[id] - c.height / 2.0;
    }
    nl.add_cell(c, raw.cell_name(id));
  }
  for (NetId e = 0; e < raw.num_nets(); ++e) {
    const Net& n = raw.net(e);
    std::vector<Pin> pins;
    for (uint32_t k = 0; k < n.num_pins; ++k)
      pins.push_back(raw.pin(n.first_pin + k));
    nl.add_net(raw.net_name(e), n.weight, pins);
  }
  const std::vector<CellId>& movable = raw.movable_cells();
  for (size_t k = 0; k < extra; ++k) {
    const CellId a = movable[rng.uniform_index(movable.size())];
    CellId b = movable[rng.uniform_index(movable.size())];
    if (a == b) continue;
    nl.add_net("eco" + std::to_string(k), 1.0, {{a, 0, 0}, {b, 0, 0}});
  }
  nl.set_core(raw.core());
  nl.set_target_density(raw.target_density());
  nl.finalize();
  return nl;
}

double avg_displacement(const Netlist& nl, const Placement& a,
                        const Placement& b) {
  double s = 0.0;
  for (CellId id : nl.movable_cells())
    s += std::abs(a.x[id] - b.x[id]) + std::abs(a.y[id] - b.y[id]);
  return s / static_cast<double>(nl.num_movable());
}

}  // namespace

int main() {
  print_header(
      "EXTENSION — stability under small netlist changes (S6, physical "
      "synthesis)",
      "small netlist edits should barely perturb the placement when the "
      "placer restarts from the previous solution",
      "add 1% ECO nets; warm restart vs from-scratch; displacement in row "
      "heights");

  std::printf("%-8s | %14s %14s | %12s %12s\n", "design", "warm disp(rows)",
              "cold disp(rows)", "warm HPWL", "cold HPWL");
  for (uint64_t seed : {1201ull, 1202ull, 1203ull}) {
    GenParams prm;
    prm.name = "eco" + std::to_string(seed % 100);
    prm.num_cells = 4000;
    prm.seed = seed;
    prm.utilization = 0.6;
    const Netlist base_nl = generate_circuit(prm);

    ComplxConfig cfg;
    const PlaceResult base = ComplxPlacer(base_nl, cfg).place();

    const size_t extra = base_nl.num_nets() / 100;  // 1% new nets
    const Netlist eco_nl = perturb(base_nl, base.anchors, extra, seed ^ 7);

    ComplxConfig warm_cfg = cfg;
    warm_cfg.max_iterations = 20;
    const PlaceResult warm =
        ComplxPlacer(eco_nl, warm_cfg).place_from(eco_nl.snapshot());

    const PlaceResult cold = ComplxPlacer(eco_nl, cfg).place();

    const double rows = base_nl.row_height();
    std::printf("%-8s | %14.2f %14.2f | %12.0f %12.0f\n", prm.name.c_str(),
                avg_displacement(eco_nl, warm.anchors, base.anchors) / rows,
                avg_displacement(eco_nl, cold.anchors, base.anchors) / rows,
                hpwl(eco_nl, warm.anchors), hpwl(eco_nl, cold.anchors));
  }
  std::printf("\nShape: warm restarts keep cells within a few rows of their "
              "previous locations at comparable HPWL; from-scratch runs "
              "scatter them — the stability S6 observes.\n");
  return 0;
}
