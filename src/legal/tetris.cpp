#include "legal/tetris.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "util/log.h"

namespace complx {

namespace {

/// Occupied-interval bookkeeping for one row: map from interval start to
/// interval end, non-overlapping and merged.
class RowSpace {
 public:
  RowSpace(double xl, double xh) : xl_(xl), xh_(xh) {}

  /// Marks [a, b] occupied (merging neighbours).
  void block(double a, double b) {
    a = std::max(a, xl_);
    b = std::min(b, xh_);
    if (b <= a) return;
    auto it = occ_.lower_bound(a);
    if (it != occ_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= a) it = prev;
    }
    while (it != occ_.end() && it->first <= b) {
      a = std::min(a, it->first);
      b = std::max(b, it->second);
      it = occ_.erase(it);
    }
    occ_.emplace(a, b);
  }

  /// Best site-aligned x (left edge) for a cell of `width` near `target_x`;
  /// returns infinity if no gap fits.
  double find_spot(double width, double target_x, double site_origin,
                   double site_width) const {
    double best = std::numeric_limits<double>::infinity();
    double best_cost = std::numeric_limits<double>::infinity();
    auto consider_gap = [&](double gl, double gh) {
      if (gh - gl < width - 1e-9) return;
      double x = std::clamp(target_x, gl, gh - width);
      // Snap to the site lattice without leaving the gap.
      x = site_origin + std::round((x - site_origin) / site_width) *
                            site_width;
      if (x < gl - 1e-9) x += site_width;
      if (x + width > gh + 1e-9) x -= site_width;
      if (x < gl - 1e-9 || x + width > gh + 1e-9) return;
      const double cost = std::abs(x - target_x);
      if (cost < best_cost) {
        best_cost = cost;
        best = x;
      }
    };

    if (occ_.empty()) {
      consider_gap(xl_, xh_);
      return best;
    }
    // Gap before the first interval, between intervals, after the last.
    // Scan only intervals near target_x: start at lower_bound and walk a
    // bounded window both ways (costs grow monotonically with distance).
    auto it = occ_.lower_bound(target_x);
    auto scan = [&](std::map<double, double>::const_iterator from,
                    bool forward) {
      auto cur = from;
      for (int steps = 0; steps < 64; ++steps) {
        double gl, gh;
        if (forward) {
          gl = cur->second;
          auto nxt = std::next(cur);
          gh = nxt == occ_.end() ? xh_ : nxt->first;
        } else {
          gh = cur->first;
          gl = cur == occ_.begin() ? xl_ : std::prev(cur)->second;
        }
        consider_gap(gl, gh);
        // Early exit: once the nearest edge of the gap is farther than the
        // best cost, later gaps can only be worse.
        const double edge_dist =
            forward ? std::max(0.0, gl - target_x)
                    : std::max(0.0, target_x - gh);
        if (edge_dist > best_cost) break;
        if (forward) {
          ++cur;
          if (cur == occ_.end()) break;
        } else {
          if (cur == occ_.begin()) break;
          --cur;
        }
      }
    };
    if (it != occ_.end()) scan(it, true);
    if (it != occ_.begin()) scan(std::prev(it), false);
    // Also the gap straddling target (between prev's end and it's start).
    {
      const double gl = it == occ_.begin() ? xl_ : std::prev(it)->second;
      const double gh = it == occ_.end() ? xh_ : it->first;
      consider_gap(gl, gh);
    }
    return best;
  }

 private:
  double xl_, xh_;
  std::map<double, double> occ_;
};

}  // namespace

MacroPhase place_macros(const Netlist& nl, Placement& p,
                        LegalizeResult& result) {
  const std::vector<Row>& rows = nl.rows();
  const double row_h = rows.front().height;
  const double y0 = rows.front().y;
  const double site_w = rows.front().site_width;

  MacroPhase phase;
  for (const Cell& c : nl.cells())
    if (!c.movable()) phase.blockages.push_back(c.bounds());
  std::vector<CellId> macros;
  for (CellId id : nl.movable_cells())
    (nl.cell(id).is_macro() ? macros : phase.std_cells).push_back(id);
  // Ties broken by id: std::sort is unstable, so equal keys would otherwise
  // leave the placement order (and thus the result) implementation-defined.
  std::sort(macros.begin(), macros.end(), [&](CellId a, CellId b) {
    const double aa = nl.cell(a).area(), ab = nl.cell(b).area();
    if (aa > ab) return true;
    if (ab > aa) return false;
    return a < b;
  });

  const Rect& core = nl.core();
  for (CellId id : macros) {
    const Cell& c = nl.cell(id);
    const double tx = p.x[id] - c.width / 2.0;
    const double ty = p.y[id] - c.height / 2.0;
    bool placed = false;
    Rect spot;
    // Expanding lattice search around the target, step = one row height.
    for (int radius = 0; radius < 400 && !placed; ++radius) {
      for (int dy = -radius; dy <= radius && !placed; ++dy) {
        for (int dx = -radius; dx <= radius && !placed; ++dx) {
          if (std::max(std::abs(dx), std::abs(dy)) != radius) continue;
          double x = tx + dx * row_h;
          double y = y0 + std::round((ty + dy * row_h - y0) / row_h) * row_h;
          x = std::clamp(x, core.xl, std::max(core.xl, core.xh - c.width));
          x = core.xl + std::floor((x - core.xl) / site_w) * site_w;
          y = std::clamp(y, core.yl, std::max(core.yl, core.yh - c.height));
          y = y0 + std::round((y - y0) / row_h) * row_h;
          const Rect cand{x, y, x + c.width, y + c.height};
          bool clash = false;
          for (const Rect& r : phase.blockages)
            if (r.overlaps(cand)) {
              clash = true;
              break;
            }
          if (!clash) {
            spot = cand;
            placed = true;
          }
        }
      }
    }
    if (!placed) {
      ++result.failed;
      const std::string_view nm = nl.cell_name(id);
      log_warn("legalizer: macro %.*s could not be placed",
               static_cast<int>(nm.size()), nm.data());
      continue;
    }
    phase.blockages.push_back(spot);
    const double disp = std::abs(spot.xl - tx) + std::abs(spot.yl - ty);
    result.total_displacement += disp;
    result.max_displacement = std::max(result.max_displacement, disp);
    p.x[id] = spot.center().x;
    p.y[id] = spot.center().y;
    ++result.placed;
  }
  return phase;
}

TetrisLegalizer::TetrisLegalizer(const Netlist& nl) : nl_(nl) {}

LegalizeResult TetrisLegalizer::legalize(Placement& p) const {
  LegalizeResult result;
  const std::vector<Row>& rows = nl_.rows();
  if (rows.empty()) {
    log_error("legalizer: netlist has no rows");
    return result;
  }
  const double row_h = rows.front().height;
  const double y0 = rows.front().y;

  std::vector<RowSpace> spaces;
  spaces.reserve(rows.size());
  for (const Row& r : rows) spaces.emplace_back(r.xl, r.xh);

  auto row_index_of = [&](double y) {
    const long k = std::lround((y - y0) / row_h);
    return std::clamp<long>(k, 0, static_cast<long>(rows.size()) - 1);
  };

  // ---- fixed cells and movable macros become row blockages ---------------
  MacroPhase phase = place_macros(nl_, p, result);
  for (const Rect& r : phase.blockages) {
    if (r.yh <= y0 || r.yl >= rows.back().y + row_h) continue;
    const long j0 = row_index_of(r.yl + 1e-9);
    const long j1 = row_index_of(r.yh - 1e-9);
    for (long j = j0; j <= j1; ++j) {
      const Row& row = rows[static_cast<size_t>(j)];
      // Only block if the rect vertically overlaps this row.
      if (r.yl < row.y + row.height - 1e-9 && r.yh > row.y + 1e-9)
        spaces[static_cast<size_t>(j)].block(r.xl, r.xh);
    }
  }
  std::vector<CellId>& std_cells = phase.std_cells;

  // ---- standard cells: x-sorted greedy fill ------------------------------
  std::sort(std_cells.begin(), std_cells.end(), [&](CellId a, CellId b) {
    if (p.x[a] < p.x[b]) return true;
    if (p.x[b] < p.x[a]) return false;
    return a < b;  // deterministic order for coincident cells
  });

  for (CellId id : std_cells) {
    const Cell& c = nl_.cell(id);
    const double tx = p.x[id] - c.width / 2.0;
    const double ty = p.y[id] - c.height / 2.0;
    const long target_row = row_index_of(ty);

    double best_cost = std::numeric_limits<double>::infinity();
    double best_x = 0.0;
    long best_row = -1;
    int radius = kRowSearchRadius;
    while (true) {
      for (long dj = -radius; dj <= radius; ++dj) {
        const long j = target_row + dj;
        if (j < 0 || j >= static_cast<long>(rows.size())) continue;
        const Row& row = rows[static_cast<size_t>(j)];
        const double dy = std::abs(row.y - ty);
        if (dy >= best_cost) continue;
        const double x = spaces[static_cast<size_t>(j)].find_spot(
            c.width, tx, row.xl, row.site_width);
        if (!std::isfinite(x)) continue;
        const double cost = std::abs(x - tx) + dy;
        if (cost < best_cost) {
          best_cost = cost;
          best_x = x;
          best_row = j;
        }
      }
      if (best_row >= 0 || radius >= static_cast<int>(rows.size())) break;
      radius *= 2;
    }

    if (best_row < 0) {
      ++result.failed;
      const std::string_view nm = nl_.cell_name(id);
      log_warn("legalizer: no spot for cell %.*s", static_cast<int>(nm.size()),
               nm.data());
      continue;
    }
    const Row& row = rows[static_cast<size_t>(best_row)];
    spaces[static_cast<size_t>(best_row)].block(best_x, best_x + c.width);
    result.total_displacement += best_cost;
    result.max_displacement = std::max(result.max_displacement, best_cost);
    p.x[id] = best_x + c.width / 2.0;
    p.y[id] = row.y + c.height / 2.0;
    ++result.placed;
  }
  return result;
}

bool TetrisLegalizer::is_legal(const Netlist& nl, const Placement& p,
                               double tol) {
  // O(n log n) sweep: sort movable rectangles by x, check pairwise overlap
  // within a sliding window; also check row alignment and core containment.
  const std::vector<Row>& rows = nl.rows();
  const double y0 = rows.empty() ? nl.core().yl : rows.front().y;
  const double row_h = rows.empty() ? nl.row_height() : rows.front().height;

  std::vector<Rect> rects;
  rects.reserve(nl.num_movable());
  for (CellId id : nl.movable_cells()) {
    const Cell& c = nl.cell(id);
    const Rect r{p.x[id] - c.width / 2.0, p.y[id] - c.height / 2.0,
                 p.x[id] + c.width / 2.0, p.y[id] + c.height / 2.0};
    if (r.xl < nl.core().xl - tol || r.xh > nl.core().xh + tol ||
        r.yl < nl.core().yl - tol || r.yh > nl.core().yh + tol)
      return false;
    const double row_off = (r.yl - y0) / row_h;
    if (std::abs(row_off - std::round(row_off)) > 1e-6) return false;
    rects.push_back(r);
  }
  // Include fixed cells inside the core for overlap checking.
  for (const Cell& c : nl.cells())
    if (!c.movable() && c.bounds().overlaps(nl.core())) {
      rects.push_back(c.bounds());
    }

  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    if (a.xl < b.xl) return true;
    if (b.xl < a.xl) return false;
    return a.yl < b.yl;  // deterministic sweep order for equal left edges
  });
  for (size_t i = 0; i < rects.size(); ++i) {
    for (size_t j = i + 1; j < rects.size(); ++j) {
      if (rects[j].xl >= rects[i].xh - tol) break;
      const Rect shrunk{rects[j].xl + tol, rects[j].yl + tol,
                        rects[j].xh - tol, rects[j].yh - tol};
      if (!shrunk.empty() && rects[i].overlaps(shrunk)) return false;
    }
  }
  return true;
}

}  // namespace complx
