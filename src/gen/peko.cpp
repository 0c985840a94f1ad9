#include "gen/peko.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace complx {

double peko_net_optimum(int degree, double cell_edge) {
  // Minimum center-bbox half-perimeter of `degree` disjoint W x W squares.
  // Degrees 4/9/16 follow from the area bound: centers spanning w x h force
  // the squares into a (w+W) x (h+W) box, so (w+W)(h+W) >= k W^2; for a
  // perfect square k = s^2, w + h < 2(s-1)W would make the product
  // < (sW)^2 = k W^2 — contradiction — and the s x s block attains
  // 2(s-1)W. Degrees 2/3 use the separation argument: two disjoint squares
  // need dx >= W or dy >= W (so m(2) = W), and for three squares an
  // x-extent < W forces all pairwise dy >= W (y-extent >= 2W) while a
  // y-extent < W forces x-extent >= 2W, so m(3) = 2W (an L-tromino or a
  // straight triple attains it). See docs/BENCHMARKS.md for the write-up.
  const double w = cell_edge;
  switch (degree) {
    case 2: return w;
    case 3: return 2.0 * w;
    case 4: return 2.0 * w;
    case 9: return 4.0 * w;
    case 16: return 6.0 * w;
    default:
      throw std::invalid_argument(
          "peko_net_optimum: unsupported net degree " + std::to_string(degree) +
          " (supported: 2, 3, 4, 9, 16)");
  }
}

namespace {

// Nets per cell INCLUDING the per-patch connectivity chains (which
// contribute just under 1 net/cell); the remainder are random windows.
constexpr double kNetsPerCell = 1.8;
// Edge range of the fixed blockages, in row heights.
constexpr double kMacroRowsMin = 6.0;
constexpr double kMacroRowsMax = 14.0;
// Row height, also the edge W of the square cells.
constexpr double kRowHeight = 12.0;

struct Window {
  int degree = 0;
  size_t span_x = 0;  ///< window width in cells
  size_t span_y = 0;
};

/// Cells of one random net, as local (i, j) patch coordinates.
std::vector<std::pair<size_t, size_t>> draw_window_cells(int degree,
                                                         size_t side,
                                                         Rng& rng) {
  // Clamp the degree down to what the patch can host.
  if (side < 4 && degree == 16) degree = 9;
  if (side < 3 && degree >= 3) degree = 2;
  if (degree == 9 && side < 3) degree = 4;

  std::vector<std::pair<size_t, size_t>> cells;
  auto anchor = [&](size_t span_x, size_t span_y) {
    const size_t i = rng.uniform_index(side - (span_x - 1));
    const size_t j = rng.uniform_index(side - (span_y - 1));
    return std::pair<size_t, size_t>{i, j};
  };
  switch (degree) {
    case 2: {
      if (rng.uniform() < 0.5) {  // horizontal pair
        const auto [i, j] = anchor(2, 1);
        cells = {{i, j}, {i + 1, j}};
      } else {  // vertical pair
        const auto [i, j] = anchor(1, 2);
        cells = {{i, j}, {i, j + 1}};
      }
      break;
    }
    case 3: {
      const uint64_t variant = rng.uniform_index(6);
      if (variant == 0) {  // straight horizontal
        const auto [i, j] = anchor(3, 1);
        cells = {{i, j}, {i + 1, j}, {i + 2, j}};
      } else if (variant == 1) {  // straight vertical
        const auto [i, j] = anchor(1, 3);
        cells = {{i, j}, {i, j + 1}, {i, j + 2}};
      } else {  // L-tromino: a 2x2 block minus one corner
        const auto [i, j] = anchor(2, 2);
        const size_t skip = static_cast<size_t>(variant - 2);  // 0..3
        for (size_t dj = 0; dj < 2; ++dj)
          for (size_t di = 0; di < 2; ++di)
            if (dj * 2 + di != skip) cells.push_back({i + di, j + dj});
      }
      break;
    }
    default: {  // square blocks: 4 -> 2x2, 9 -> 3x3, 16 -> 4x4
      const size_t s = degree == 4 ? 2 : degree == 9 ? 3 : 4;
      const auto [i, j] = anchor(s, s);
      for (size_t dj = 0; dj < s; ++dj)
        for (size_t di = 0; di < s; ++di) cells.push_back({i + di, j + dj});
      break;
    }
  }
  return cells;
}

}  // namespace

PekoDesign generate_peko(const PekoParams& prm) {
  if (prm.num_cells < 4)
    throw std::invalid_argument("peko generator needs at least 4 cells");
  if (prm.patch_side < 2)
    throw std::invalid_argument("peko patch_side must be >= 2");
  if (!(prm.utilization > 0.0) || prm.utilization > 0.95)
    throw std::invalid_argument("peko utilization must be in (0, 0.95]");
  const double wsum =
      prm.w_pair + prm.w_triple + prm.w_quad + prm.w_nine + prm.w_sixteen;
  if (prm.w_pair < 0 || prm.w_triple < 0 || prm.w_quad < 0 ||
      prm.w_nine < 0 || prm.w_sixteen < 0 || wsum <= 0.0)
    throw std::invalid_argument("peko degree weights must be >= 0, sum > 0");

  Rng rng(prm.seed);
  PekoDesign d;
  Netlist& nl = d.netlist;
  const double W = kRowHeight;  // square cell edge

  // ---- geometry bookkeeping ------------------------------------------------
  const size_t side = std::min<size_t>(
      prm.patch_side,
      std::max<size_t>(2, static_cast<size_t>(std::ceil(
                              std::sqrt(static_cast<double>(prm.num_cells))))));
  const size_t per_patch = side * side;
  const size_t patches = (prm.num_cells + per_patch - 1) / per_patch;
  const size_t total = patches * per_patch;
  d.cells = total;
  d.patches = patches;
  d.patch_side = side;

  // Macro dimensions are drawn before anything else so the core can be sized
  // to hold them (they are placed into the whitespace further down).
  std::vector<std::pair<double, double>> macro_dims;
  double macro_area = 0.0;
  for (size_t m = 0; m < prm.num_fixed_macros; ++m) {
    const double mw =
        std::round(rng.uniform(kMacroRowsMin, kMacroRowsMax)) * W;
    const double mh =
        std::round(rng.uniform(kMacroRowsMin, kMacroRowsMax)) * W;
    macro_dims.push_back({mw, mh});
    macro_area += mw * mh;
  }

  // Core: sized for the requested utilization, grown if necessary so the
  // g x g patch super-grid fits with at least one row of slack everywhere.
  const double cell_area = static_cast<double>(total) * W * W;
  const size_t g = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(patches))));
  const double patch_w = static_cast<double>(side) * W;
  const double min_side =
      static_cast<double>(g) * patch_w + static_cast<double>(g + 1) * W;
  const double want_side = std::sqrt((cell_area + macro_area) / prm.utilization);
  const double S = std::ceil(std::max(want_side, min_side) / W) * W;
  nl.set_core({0.0, 0.0, S, S});
  {
    std::vector<Row> rows;
    for (double y = 0.0; y + W <= S + 1e-9; y += W)
      rows.push_back({y, W, 0.0, S, 1.0});
    nl.set_rows(std::move(rows));
  }
  nl.set_target_density(prm.target_density);

  // Pre-size the flat arrays (arena construction; see generator.cpp) and
  // format names into a stack buffer, straight into the NamePool.
  {
    const size_t est_nets = static_cast<size_t>(std::llround(
        static_cast<double>(total) * kNetsPerCell));
    nl.reserve(total + macro_dims.size(), est_nets + total, 4 * est_nets);
  }
  char name_buf[32];
  auto fmt_name = [&name_buf](const char* prefix, size_t i) {
    const int len = std::snprintf(name_buf, sizeof(name_buf), "%s%zu",
                                  prefix, i);
    return std::string_view(name_buf, static_cast<size_t>(len));
  };

  // ---- cells at their certified-optimal positions --------------------------
  // Patch p sits at super-grid slot (p % g, p / g); its origin is the slot
  // center snapped DOWN to the W grid, which keeps every coordinate an exact
  // multiple of W (row- and site-aligned, exact in double).
  const double pitch = S / static_cast<double>(g);
  std::vector<Rect> patch_rects;
  for (size_t p = 0; p < patches; ++p) {
    const double col = static_cast<double>(p % g);
    const double row = static_cast<double>(p / g);
    const double x0 =
        std::floor((col * pitch + (pitch - patch_w) / 2.0) / W) * W;
    const double y0 =
        std::floor((row * pitch + (pitch - patch_w) / 2.0) / W) * W;
    patch_rects.push_back({x0, y0, x0 + patch_w, y0 + patch_w});
    for (size_t j = 0; j < side; ++j) {
      for (size_t i = 0; i < side; ++i) {
        Cell c;
        c.width = W;
        c.height = W;
        c.x = x0 + static_cast<double>(i) * W;
        c.y = y0 + static_cast<double>(j) * W;
        // The patch corner is fixed at its optimal spot: it anchors the
        // lambda = 0 quadratic solves (the PEKO analogue of I/O pads) and
        // cannot change the optimum — fixing a cell where the optimal
        // placement already puts it only shrinks the feasible set.
        c.kind = (i == 0 && j == 0) ? CellKind::Fixed : CellKind::Movable;
        nl.add_cell(c, fmt_name("c", p * per_patch + j * side + i));
      }
    }
  }
  d.anchors = patches;

  // ---- macros: pin-less blockages in the whitespace ------------------------
  std::vector<Rect> macro_rects;
  for (size_t m = 0; m < macro_dims.size(); ++m) {
    const auto [mw, mh] = macro_dims[m];
    if (mw > S || mh > S) continue;
    bool placed = false;
    for (int attempt = 0; attempt < 128 && !placed; ++attempt) {
      const double x = std::floor(rng.uniform(0.0, S - mw) / W) * W;
      const double y = std::floor(rng.uniform(0.0, S - mh) / W) * W;
      const Rect cand{x, y, x + mw, y + mh};
      bool clash = false;
      for (const Rect& r : patch_rects)
        if (r.overlaps(cand)) { clash = true; break; }
      for (const Rect& r : macro_rects)
        if (clash || r.overlaps(cand)) { clash = true; break; }
      if (clash) continue;
      Cell c;
      c.width = mw;
      c.height = mh;
      c.x = x;
      c.y = y;
      c.kind = CellKind::Fixed;
      nl.add_cell(c, fmt_name("fm", m));
      macro_rects.push_back(cand);
      placed = true;
    }
  }
  d.macros_placed = macro_rects.size();
  double placed_macro_area = 0.0;
  for (const Rect& r : macro_rects) placed_macro_area += r.area();
  d.achieved_utilization = (cell_area + placed_macro_area) / (S * S);

  // ---- nets ----------------------------------------------------------------
  auto cell_of = [&](size_t patch, size_t i, size_t j) {
    return static_cast<CellId>(patch * per_patch + j * side + i);
  };
  size_t net_counter = 0;
  double optimum = 0.0;

  // Connectivity chains: snake-order adjacent pairs cover every cell, make
  // each patch one connected component (reachable from its fixed anchor),
  // and each contributes exactly m(2) = W.
  for (size_t p = 0; p < patches; ++p) {
    CellId prev = cell_of(p, 0, 0);
    for (size_t j = 0; j < side; ++j) {
      for (size_t step = 0; step < side; ++step) {
        const size_t i = (j % 2 == 0) ? step : side - 1 - step;
        const CellId cur = cell_of(p, i, j);
        if (cur == prev) continue;
        nl.add_net(fmt_name("n", net_counter++),
                   1.0, {{prev, 0.0, 0.0}, {cur, 0.0, 0.0}});
        optimum += peko_net_optimum(2, W);
        prev = cur;
      }
    }
  }

  // Random window nets on top, up to the requested nets/cell budget.
  const size_t chain_nets = net_counter;
  const size_t requested = static_cast<size_t>(
      std::llround(static_cast<double>(total) * kNetsPerCell));
  const size_t random_nets = requested > chain_nets ? requested - chain_nets : 0;
  const double t_pair = prm.w_pair / wsum;
  const double t_triple = t_pair + prm.w_triple / wsum;
  const double t_quad = t_triple + prm.w_quad / wsum;
  const double t_nine = t_quad + prm.w_nine / wsum;
  for (size_t n = 0; n < random_nets; ++n) {
    const size_t patch = rng.uniform_index(patches);
    const double u = rng.uniform();
    const int degree = u < t_pair ? 2
                       : u < t_triple ? 3
                       : u < t_quad ? 4
                       : u < t_nine ? 9
                                    : 16;
    const auto window = draw_window_cells(degree, side, rng);
    std::vector<Pin> pins;
    pins.reserve(window.size());
    for (const auto& [i, j] : window)
      pins.push_back({cell_of(patch, i, j), 0.0, 0.0});
    nl.add_net(fmt_name("n", net_counter++), 1.0, pins);
    optimum += peko_net_optimum(static_cast<int>(window.size()), W);
  }

  d.optimum_hpwl = optimum;
  nl.finalize();
  return d;
}

}  // namespace complx
