#include "legal/abacus.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/log.h"

namespace complx {

namespace {

/// One free span of a row (between blockages), holding Abacus clusters.
struct Segment {
  double xl = 0.0, xh = 0.0;
  double used = 0.0;  ///< Σ widths of cells committed here

  struct Cluster {
    double e = 0.0;      ///< Σ weights
    double q = 0.0;      ///< Σ w·(desired − offset-within-cluster)
    double width = 0.0;  ///< Σ member widths
    double x = 0.0;      ///< optimal left edge (clamped)
    size_t first_cell = 0;  ///< index into Segment::cells
  };
  std::vector<Cluster> clusters;
  struct PlacedCell {
    CellId id;
    double width;
    double desired;  ///< desired left-x
  };
  std::vector<PlacedCell> cells;

  double clamp_pos(double x, double width) const {
    return std::clamp(x, xl, std::max(xl, xh - width));
  }

  /// Appends a cell, collapsing clusters; returns the cell's resulting
  /// left-x. Pure simulation when `commit` is false.
  double append(CellId id, double width, double desired, bool commit) {
    // Work on copies for simulation.
    std::vector<Cluster> work = clusters;
    Cluster nc;
    nc.e = 1.0;
    nc.q = desired;
    nc.width = width;
    nc.first_cell = cells.size();
    nc.x = clamp_pos(desired, width);
    work.push_back(nc);

    // Collapse while overlapping the predecessor.
    while (work.size() > 1) {
      Cluster& prev = work[work.size() - 2];
      Cluster& cur = work.back();
      if (prev.x + prev.width <= cur.x + 1e-9) break;
      // Merge cur into prev: members keep order; their desired positions
      // shift by prev.width within the merged cluster.
      prev.e += cur.e;
      prev.q += cur.q - cur.e * prev.width;
      prev.width += cur.width;
      work.pop_back();
      Cluster& m = work.back();
      m.x = clamp_pos(m.q / m.e, m.width);
    }

    // Resulting left-x of the appended cell: last cluster's x plus the
    // widths of the members that precede it.
    const Cluster& last = work.back();
    const double offset = last.width - width;
    const double cell_x = last.x + offset;

    if (commit) {
      clusters = std::move(work);
      cells.push_back({id, width, desired});
      used += width;
    }
    return cell_x;
  }
};

}  // namespace

AbacusLegalizer::AbacusLegalizer(const Netlist& nl) : nl_(nl) {}

LegalizeResult AbacusLegalizer::legalize(Placement& p) const {
  LegalizeResult result;
  const std::vector<Row>& rows = nl_.rows();
  if (rows.empty()) {
    log_error("abacus: netlist has no rows");
    return result;
  }
  const double row_h = rows.front().height;
  const double y0 = rows.front().y;

  // ---- macros by the shared spiral search, then blockages ----------------
  MacroPhase phase = place_macros(nl_, p, result);
  const std::vector<Rect>& blockages = phase.blockages;
  std::vector<CellId>& std_cells = phase.std_cells;

  // ---- segments per row from blockages ------------------------------------
  std::vector<std::vector<Segment>> segs(rows.size());
  for (size_t j = 0; j < rows.size(); ++j) {
    const Row& row = rows[j];
    // Collect blocked intervals for this row.
    std::vector<std::pair<double, double>> blocked;
    for (const Rect& r : blockages) {
      if (r.yl < row.y + row.height - 1e-9 && r.yh > row.y + 1e-9 &&
          r.xh > row.xl && r.xl < row.xh)
        blocked.push_back({std::max(r.xl, row.xl), std::min(r.xh, row.xh)});
    }
    std::sort(blocked.begin(), blocked.end());
    double cursor = row.xl;
    for (const auto& [bl, bh] : blocked) {
      if (bl > cursor + 1e-9) {
        Segment sg;
        sg.xl = cursor;
        sg.xh = bl;
        segs[j].push_back(std::move(sg));
      }
      cursor = std::max(cursor, bh);
    }
    if (cursor < row.xh - 1e-9) {
      Segment sg;
      sg.xl = cursor;
      sg.xh = row.xh;
      segs[j].push_back(std::move(sg));
    }
  }

  // ---- Abacus insertion over x-sorted standard cells ----------------------
  std::sort(std_cells.begin(), std_cells.end(), [&](CellId a, CellId b) {
    if (p.x[a] < p.x[b]) return true;
    if (p.x[b] < p.x[a]) return false;
    return a < b;  // deterministic order for coincident cells
  });

  for (CellId id : std_cells) {
    const Cell& c = nl_.cell(id);
    const double tx = p.x[id] - c.width / 2.0;
    const double ty = p.y[id] - c.height / 2.0;
    const long target_row = std::clamp<long>(
        std::lround((ty - y0) / row_h), 0,
        static_cast<long>(rows.size()) - 1);

    double best_cost = std::numeric_limits<double>::infinity();
    long best_row = -1;
    size_t best_seg = 0;
    int radius = kRowSearchRadius;
    while (true) {
      for (long dj = -radius; dj <= radius; ++dj) {
        const long j = target_row + dj;
        if (j < 0 || j >= static_cast<long>(rows.size())) continue;
        const double dy = std::abs(rows[static_cast<size_t>(j)].y - ty);
        if (dy >= best_cost) continue;
        for (size_t s = 0; s < segs[static_cast<size_t>(j)].size(); ++s) {
          Segment& seg = segs[static_cast<size_t>(j)][s];
          if (seg.used + c.width > seg.xh - seg.xl + 1e-9) continue;
          // Quick reject: segment far from target in x.
          const double dx_bound =
              tx < seg.xl ? seg.xl - tx
                          : (tx > seg.xh - c.width ? tx - (seg.xh - c.width)
                                                   : 0.0);
          if (dx_bound + dy >= best_cost) continue;
          const double x = seg.append(id, c.width, tx, /*commit=*/false);
          const double cost = std::abs(x - tx) + dy;
          if (cost < best_cost) {
            best_cost = cost;
            best_row = j;
            best_seg = s;
          }
        }
      }
      if (best_row >= 0 || radius >= static_cast<int>(rows.size())) break;
      radius *= 2;
    }

    if (best_row < 0) {
      ++result.failed;
      const std::string_view nm = nl_.cell_name(id);
      log_warn("abacus: no segment for cell %.*s", static_cast<int>(nm.size()),
               nm.data());
      continue;
    }
    segs[static_cast<size_t>(best_row)][best_seg].append(id, c.width, tx,
                                                         /*commit=*/true);
    ++result.placed;
  }

  // ---- final positions from cluster solutions -----------------------------
  for (size_t j = 0; j < rows.size(); ++j) {
    const Row& row = rows[j];
    for (Segment& seg : segs[j]) {
      // A running cursor guarantees clusters stay disjoint even after site
      // alignment (cell widths are site multiples in practice; the cursor
      // covers the general case too).
      double cursor = seg.xl;
      for (size_t ci = 0; ci < seg.clusters.size(); ++ci) {
        const Segment::Cluster& cl = seg.clusters[ci];
        const size_t end = ci + 1 < seg.clusters.size()
                               ? seg.clusters[ci + 1].first_cell
                               : seg.cells.size();
        // Site-align the cluster start inside the segment, after cursor.
        double x = std::max(seg.clamp_pos(cl.x, cl.width), cursor);
        x = row.xl +
            std::round((x - row.xl) / row.site_width) * row.site_width;
        if (x + 1e-9 < cursor) x += row.site_width;  // keep disjoint
        x = std::min(x, seg.xh - cl.width);
        x = std::max(x, cursor);
        for (size_t k = cl.first_cell; k < end; ++k) {
          const Segment::PlacedCell& pc = seg.cells[k];
          const double disp =
              std::abs(x - pc.desired) +
              std::abs(row.y -
                       (p.y[pc.id] - nl_.cell(pc.id).height / 2.0));
          result.total_displacement += disp;
          result.max_displacement = std::max(result.max_displacement, disp);
          p.x[pc.id] = x + pc.width / 2.0;
          p.y[pc.id] = row.y + nl_.cell(pc.id).height / 2.0;
          x += pc.width;
        }
        cursor = x;
      }
    }
  }
  return result;
}

}  // namespace complx
