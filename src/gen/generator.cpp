#include "gen/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace complx {

namespace {

// The shape every generated design shares; GenParams sets the rest.
constexpr double kNetsPerCell = 1.15;
constexpr double kMacroRowsMin = 6.0;  // macro edge in row heights
constexpr double kMacroRowsMax = 24.0;
constexpr double kRowHeight = 12.0;
constexpr double kCellWidthMin = 4.0;
constexpr double kCellWidthMax = 26.0;
// Cluster-grid locality: fraction of a net's pins drawn from its home
// cluster, then from ring-1 neighbours; the rest come from anywhere.
constexpr double kLocalPinFraction = 0.78;
constexpr double kNeighborPinFraction = 0.16;

struct ClusterGrid {
  size_t side = 1;  ///< clusters per dimension
  std::vector<std::vector<CellId>> members;

  size_t index(size_t i, size_t j) const { return j * side + i; }

  /// A ring-1 neighbour of cluster (i, j), or the cluster itself at edges.
  size_t neighbor(size_t i, size_t j, Rng& rng) const {
    const long di = rng.uniform_int(-1, 1);
    const long dj = rng.uniform_int(-1, 1);
    const long ni = std::clamp<long>(static_cast<long>(i) + di, 0,
                                     static_cast<long>(side) - 1);
    const long nj = std::clamp<long>(static_cast<long>(j) + dj, 0,
                                     static_cast<long>(side) - 1);
    return index(static_cast<size_t>(ni), static_cast<size_t>(nj));
  }
};

}  // namespace

Netlist generate_circuit(const GenParams& prm) {
  if (prm.num_cells < 16)
    throw std::invalid_argument("generator needs at least 16 cells");
  Rng rng(prm.seed);
  Netlist nl;

  // Arena-style pre-sizing: one reservation per flat array up front, so a
  // multi-million-cell build never reallocates mid-construction. Net/pin
  // counts are estimates (kNetsPerCell draws, degree ~<= 4 + pad/macro
  // fan-in); a slight overshoot is cheap, a reallocation storm is not.
  {
    const size_t est_cells = prm.num_cells + prm.num_movable_macros +
                             prm.num_fixed_macros + prm.num_pads;
    const size_t est_nets = static_cast<size_t>(
        static_cast<double>(prm.num_cells) * kNetsPerCell) +
        prm.num_pads + 16;
    nl.reserve(est_cells, est_nets, 4 * est_nets);
  }

  // Stack-buffer name formatting: "c"/"mm"/"fm"/"p"/"n" + decimal index,
  // straight into the netlist's NamePool arena — no temporary std::string
  // per object.
  char name_buf[32];
  auto fmt_name = [&name_buf](const char* prefix, size_t i) {
    const int len = std::snprintf(name_buf, sizeof(name_buf), "%s%zu",
                                  prefix, i);
    return std::string_view(name_buf, static_cast<size_t>(len));
  };

  // ---- movable standard cells ------------------------------------------
  double movable_area = 0.0;
  for (size_t i = 0; i < prm.num_cells; ++i) {
    Cell c;
    c.width = std::round(rng.uniform(kCellWidthMin, kCellWidthMax));
    c.height = kRowHeight;
    c.kind = CellKind::Movable;
    movable_area += c.area();
    nl.add_cell(c, fmt_name("c", i));
  }

  // ---- macros ------------------------------------------------------------
  auto macro_edge = [&] {
    return std::round(rng.uniform(kMacroRowsMin, kMacroRowsMax)) * kRowHeight;
  };
  std::vector<CellId> movable_macros, fixed_macros;
  for (size_t i = 0; i < prm.num_movable_macros; ++i) {
    Cell c;
    c.width = macro_edge();
    c.height = macro_edge();
    c.kind = CellKind::MovableMacro;
    movable_area += c.area();
    movable_macros.push_back(nl.add_cell(c, fmt_name("mm", i)));
  }
  double fixed_macro_area = 0.0;
  for (size_t i = 0; i < prm.num_fixed_macros; ++i) {
    Cell c;
    c.width = macro_edge();
    c.height = macro_edge();
    c.kind = CellKind::Fixed;
    fixed_macro_area += c.area();
    fixed_macros.push_back(nl.add_cell(c, fmt_name("fm", i)));
  }

  // ---- core area and rows -------------------------------------------------
  const double core_area =
      (movable_area + fixed_macro_area) / std::max(prm.utilization, 0.05);
  const double side =
      std::ceil(std::sqrt(core_area) / kRowHeight) * kRowHeight;
  const Rect core{0.0, 0.0, side, side};
  nl.set_core(core);
  {
    std::vector<Row> rows;
    for (double y = 0.0; y + kRowHeight <= side + 1e-9; y += kRowHeight)
      rows.push_back({y, kRowHeight, 0.0, side, 1.0});
    nl.set_rows(std::move(rows));
  }
  nl.set_target_density(prm.target_density);

  // ---- place fixed objects -------------------------------------------------
  // Fixed macros: rejection-sampled into the core interior.
  {
    std::vector<Rect> placed;
    for (CellId id : fixed_macros) {
      Cell& c = nl.cell(id);
      Rect best{};
      for (int attempt = 0; attempt < 64; ++attempt) {
        const double x =
            rng.uniform(core.xl, std::max(core.xl, core.xh - c.width));
        const double y = std::floor(rng.uniform(core.yl, std::max(
                                        core.yl, core.yh - c.height)) /
                                    kRowHeight) *
                         kRowHeight;
        const Rect cand{x, y, x + c.width, y + c.height};
        bool clash = false;
        for (const Rect& r : placed)
          if (r.overlaps(cand)) {
            clash = true;
            break;
          }
        best = cand;
        if (!clash) break;
      }
      c.x = best.xl;
      c.y = best.yl;
      placed.push_back(best);
    }
  }

  // Pads: evenly spaced around the core, just outside the boundary so they
  // consume no placement capacity (I/O ring).
  std::vector<CellId> pads;
  const double pad_sz = kRowHeight;
  for (size_t i = 0; i < prm.num_pads; ++i) {
    Cell c;
    c.width = pad_sz;
    c.height = pad_sz;
    c.kind = CellKind::Fixed;
    const double t =
        static_cast<double>(i) / static_cast<double>(prm.num_pads);
    const double perim = 4.0 * side;
    const double d = t * perim;
    if (d < side) {  // bottom edge
      c.x = d;
      c.y = core.yl - pad_sz;
    } else if (d < 2 * side) {  // right edge
      c.x = core.xh;
      c.y = d - side;
    } else if (d < 3 * side) {  // top edge
      c.x = core.xh - (d - 2 * side);
      c.y = core.yh;
    } else {  // left edge
      c.x = core.xl - pad_sz;
      c.y = core.yh - (d - 3 * side);
    }
    pads.push_back(nl.add_cell(c, fmt_name("p", i)));
  }

  // ---- cluster assignment ---------------------------------------------------
  ClusterGrid grid;
  grid.side = std::max<size_t>(
      2, static_cast<size_t>(std::sqrt(static_cast<double>(prm.num_cells) /
                                       64.0)));
  grid.members.assign(grid.side * grid.side, {});
  for (CellId id = 0; id < prm.num_cells; ++id)
    grid.members[rng.uniform_index(grid.side * grid.side)].push_back(id);
  // Guarantee non-empty clusters (tiny designs): backfill from cluster 0.
  for (auto& m : grid.members)
    if (m.empty()) m.push_back(static_cast<CellId>(rng.uniform_index(prm.num_cells)));

  auto random_offset = [&](const Cell& c, double& dx, double& dy) {
    dx = rng.uniform(-0.4 * c.width, 0.4 * c.width);
    dy = rng.uniform(-0.4 * c.height, 0.4 * c.height);
  };

  // Topological ranks: every net is oriented so its DRIVER (first pin) is
  // the lowest-ranked cell. Edges then always go rank-upward, so the
  // combinational netlist is a DAG — matching real circuits and making the
  // timing substrate meaningful (see timing/sta.h conventions).
  std::vector<uint64_t> rank(nl.num_cells() + prm.num_pads + 16);
  {
    Rng rank_rng(prm.seed ^ 0x7a9c1ull);
    for (uint64_t& r : rank) r = rank_rng.next_u64();
  }
  auto orient = [&](std::vector<Pin>& pins) {
    size_t best = 0;
    for (size_t i = 1; i < pins.size(); ++i)
      if (rank[pins[i].cell] < rank[pins[best].cell]) best = i;
    std::swap(pins[0], pins[best]);
  };

  auto pick_from_cluster = [&](size_t cluster) {
    const auto& m = grid.members[cluster];
    return m[rng.uniform_index(m.size())];
  };

  // ---- internal nets ---------------------------------------------------------
  const size_t num_nets = static_cast<size_t>(
      static_cast<double>(prm.num_cells) * kNetsPerCell);
  size_t net_counter = 0;
  for (size_t n = 0; n < num_nets; ++n) {
    const size_t hi = rng.uniform_index(grid.side);
    const size_t hj = rng.uniform_index(grid.side);
    const size_t home = grid.index(hi, hj);
    const int degree = rng.net_degree(prm.max_net_degree);

    std::vector<Pin> pins;
    std::vector<CellId> used;
    for (int k = 0; k < degree; ++k) {
      const double u = rng.uniform();
      CellId cand;
      if (u < kLocalPinFraction) {
        cand = pick_from_cluster(home);
      } else if (u < kLocalPinFraction + kNeighborPinFraction) {
        cand = pick_from_cluster(grid.neighbor(hi, hj, rng));
      } else {
        cand = static_cast<CellId>(rng.uniform_index(prm.num_cells));
      }
      if (std::find(used.begin(), used.end(), cand) != used.end()) continue;
      used.push_back(cand);
      double dx, dy;
      random_offset(nl.cell(cand), dx, dy);
      pins.push_back({cand, dx, dy});
    }
    if (pins.size() < 2) {
      --n;  // degenerate draw; retry
      continue;
    }
    orient(pins);
    nl.add_net(fmt_name("n", net_counter++), 1.0, pins);
  }

  // ---- pad nets: each pad drives a small net into the cluster nearest its
  // perimeter position (so geometry-aware placement is rewarded).
  for (size_t i = 0; i < pads.size(); ++i) {
    const Cell& pad = nl.cell(pads[i]);
    const double fx = std::clamp((pad.cx() - core.xl) / side, 0.0, 0.999);
    const double fy = std::clamp((pad.cy() - core.yl) / side, 0.0, 0.999);
    const size_t ci = static_cast<size_t>(fx * static_cast<double>(grid.side));
    const size_t cj = static_cast<size_t>(fy * static_cast<double>(grid.side));
    const size_t cluster = grid.index(ci, cj);

    std::vector<Pin> pins;
    pins.push_back({pads[i], 0.0, 0.0});
    const int fanout = static_cast<int>(rng.uniform_int(2, 5));
    std::vector<CellId> used;
    for (int k = 0; k < fanout; ++k) {
      const CellId cand = pick_from_cluster(cluster);
      if (std::find(used.begin(), used.end(), cand) != used.end()) continue;
      used.push_back(cand);
      double dx, dy;
      random_offset(nl.cell(cand), dx, dy);
      pins.push_back({cand, dx, dy});
    }
    if (pins.size() >= 2) {
      orient(pins);
      nl.add_net(fmt_name("n", net_counter++), 1.0, pins);
    }
  }

  // ---- macro nets: macros connect broadly across clusters.
  auto add_macro_nets = [&](CellId macro, size_t count) {
    const Cell& m = nl.cell(macro);
    for (size_t k = 0; k < count; ++k) {
      std::vector<Pin> pins;
      // Macro pin on the block boundary.
      const double edge_t = rng.uniform(-0.5, 0.5);
      double dx, dy;
      if (rng.uniform() < 0.5) {
        dx = edge_t * m.width;
        dy = (rng.uniform() < 0.5 ? -0.5 : 0.5) * m.height;
      } else {
        dx = (rng.uniform() < 0.5 ? -0.5 : 0.5) * m.width;
        dy = edge_t * m.height;
      }
      pins.push_back({macro, dx, dy});
      const size_t cluster = rng.uniform_index(grid.side * grid.side);
      const int fanout = static_cast<int>(rng.uniform_int(2, 4));
      std::vector<CellId> used;
      for (int j = 0; j < fanout; ++j) {
        const CellId cand = pick_from_cluster(cluster);
        if (std::find(used.begin(), used.end(), cand) != used.end()) continue;
        used.push_back(cand);
        double cdx, cdy;
        random_offset(nl.cell(cand), cdx, cdy);
        pins.push_back({cand, cdx, cdy});
      }
      if (pins.size() >= 2) {
        orient(pins);
        nl.add_net(fmt_name("n", net_counter++), 1.0, pins);
      }
    }
  };
  for (CellId id : movable_macros)
    add_macro_nets(id,
                   static_cast<size_t>(nl.cell(id).width / kRowHeight * 2.0));
  for (CellId id : fixed_macros)
    add_macro_nets(id, static_cast<size_t>(nl.cell(id).width / kRowHeight));

  // ---- initial positions: deterministic scatter over the core.
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    Cell& c = nl.cell(id);
    if (!c.movable()) continue;
    c.x = rng.uniform(core.xl, std::max(core.xl, core.xh - c.width));
    c.y = rng.uniform(core.yl, std::max(core.yl, core.yh - c.height));
  }

  nl.finalize();
  return nl;
}

}  // namespace complx
