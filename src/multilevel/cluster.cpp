#include "multilevel/cluster.h"

#include <algorithm>
#include <limits>
#include <string>
#include <string_view>

#include "util/fpcmp.h"
#include "util/rng.h"

namespace complx {

CoarseLevel coarsen(const Netlist& fine, const ClusterOptions& opts) {
  constexpr uint32_t kMaxNetDegree = 16;   // bigger nets ignored for affinity
  constexpr double kMaxClusterRows = 4.0;  // merge area cap, in rows²
  const size_t n = fine.num_cells();

  // ---- affinity: for each standard cell, its heaviest neighbour ----------
  // Sparse accumulation per cell over incident small nets.
  std::vector<CellId> match(n, std::numeric_limits<CellId>::max());
  {
    Rng rng(opts.seed);
    std::vector<CellId> order;
    order.reserve(n);
    for (CellId id : fine.movable_cells())
      if (!fine.cell(id).is_macro()) order.push_back(id);
    rng.shuffle(order);

    const double area_cap = kMaxClusterRows * fine.row_height() *
                            fine.row_height();
    // Dense scratch instead of a hash map: per-candidate sums accumulate in
    // net-traversal order and the winner scan below is order-independent,
    // so the match (and therefore the whole coarse netlist) cannot depend
    // on hash iteration order (complx-lint rule D1).
    std::vector<double> affinity(n, 0.0);
    std::vector<char> is_candidate(n, 0);
    std::vector<CellId> touched;
    for (CellId id : order) {
      if (match[id] != std::numeric_limits<CellId>::max()) continue;
      if (fine.cell(id).area() > area_cap) continue;
      for (CellId t : touched) {
        affinity[t] = 0.0;
        is_candidate[t] = 0;
      }
      touched.clear();
      for (NetId e : fine.nets_of_cell(id)) {
        const Net& net = fine.net(e);
        if (net.num_pins < 2 || net.num_pins > kMaxNetDegree) continue;
        const double w =
            net.weight / static_cast<double>(net.num_pins - 1);
        for (uint32_t k = 0; k < net.num_pins; ++k) {
          const CellId other = fine.pin(net.first_pin + k).cell;
          if (other == id) continue;
          const Cell& oc = fine.cell(other);
          if (!oc.movable() || oc.is_macro()) continue;
          if (match[other] != std::numeric_limits<CellId>::max()) continue;
          if (oc.area() + fine.cell(id).area() > 2.0 * area_cap) continue;
          if (!is_candidate[other]) {
            is_candidate[other] = 1;
            touched.push_back(other);
          }
          affinity[other] += w;
        }
      }
      // Max affinity, ties to the smallest id — order-independent, so the
      // traversal order of `touched` does not matter.
      CellId best = std::numeric_limits<CellId>::max();
      double best_w = 0.0;
      for (CellId other : touched) {
        const double w = affinity[other];
        if (w > best_w || (fp::exactly_equal(w, best_w) && other < best)) {
          best_w = w;
          best = other;
        }
      }
      if (best != std::numeric_limits<CellId>::max()) {
        match[id] = best;
        match[best] = id;
      }
    }
  }

  // ---- build the coarse netlist -------------------------------------------
  CoarseLevel level;
  level.fine_to_coarse.assign(n, 0);
  Netlist& coarse = level.netlist;

  std::string merged_name;
  for (CellId id = 0; id < n; ++id) {
    const Cell& c = fine.cell(id);
    const CellId partner = match[id];
    if (partner != std::numeric_limits<CellId>::max() && partner < id) {
      // Second member of a merged pair: same coarse cell as the partner.
      level.fine_to_coarse[id] = level.fine_to_coarse[partner];
      continue;
    }
    Cell cc = c;
    std::string_view cc_name = fine.cell_name(id);
    if (partner != std::numeric_limits<CellId>::max() && partner > id) {
      // Cluster representative: combined area at row height, centered at
      // the members' mean position.
      const Cell& pc = fine.cell(partner);
      merged_name.assign(fine.cell_name(id));
      merged_name += '+';
      merged_name += fine.cell_name(partner);
      cc_name = merged_name;
      cc.height = fine.row_height();
      cc.width = (c.area() + pc.area()) / cc.height;
      cc.x = (c.cx() + pc.cx()) / 2.0 - cc.width / 2.0;
      cc.y = (c.cy() + pc.cy()) / 2.0 - cc.height / 2.0;
      cc.region = c.region != kNoRegion ? c.region : pc.region;
    }
    level.fine_to_coarse[id] = coarse.add_cell(cc, cc_name);
  }

  // Nets: re-target pins; drop single-cluster nets; dedupe per-net pins to
  // one pin per coarse cell (offsets dropped — coarse placement is about
  // global structure).
  std::vector<CellId> seen;
  std::vector<Pin> pins;  // reused across nets (capacity survives clear())
  for (NetId e = 0; e < fine.num_nets(); ++e) {
    const Net& net = fine.net(e);
    if (net.num_pins < 2) continue;
    seen.clear();
    pins.clear();
    for (uint32_t k = 0; k < net.num_pins; ++k) {
      const CellId cc = level.fine_to_coarse[fine.pin(net.first_pin + k).cell];
      if (std::find(seen.begin(), seen.end(), cc) != seen.end()) continue;
      seen.push_back(cc);
      pins.push_back({cc, 0.0, 0.0});
    }
    if (pins.size() < 2) continue;  // internal to one cluster
    coarse.add_net(fine.net_name(e), net.weight, pins);
  }

  for (const Region& r : fine.regions()) coarse.add_region(r);
  coarse.set_core(fine.core());
  coarse.set_rows(fine.rows());
  coarse.set_target_density(fine.target_density());
  coarse.finalize();
  return level;
}

Placement interpolate(const Netlist& fine,
                      const std::vector<CellId>& fine_to_coarse,
                      const Placement& coarse_placement) {
  Placement p = fine.snapshot();
  for (CellId id : fine.movable_cells()) {
    const CellId cc = fine_to_coarse[id];
    p.x[id] = coarse_placement.x[cc];
    p.y[id] = coarse_placement.y[cc];
  }
  return p;
}

}  // namespace complx
