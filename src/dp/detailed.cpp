#include "dp/detailed.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/parallel.h"
#include "wl/hpwl.h"
#include "wl/incremental.h"

namespace complx {

namespace {

/// Mutable row-major view of a legal placement: per row, the standard cells
/// sorted by x plus the fixed blockage intervals. Provides gap queries and
/// keeps itself consistent across moves.
class RowView {
 public:
  RowView(const Netlist& nl, Placement& p) : nl_(nl), p_(p) {
    const std::vector<Row>& rows = nl.rows();
    row_h_ = rows.front().height;
    y0_ = rows.front().y;
    cells_.assign(rows.size(), {});
    block_.assign(rows.size(), {});

    auto add_blockage = [&](const Rect& r) {
      const long j0 = row_of(r.yl + 1e-9);
      const long j1 = row_of(r.yh - 1e-9);
      for (long j = std::max(0L, j0);
           j <= std::min<long>(j1, static_cast<long>(rows.size()) - 1); ++j) {
        const double ry = y0_ + static_cast<double>(j) * row_h_;
        if (r.yl < ry + row_h_ - 1e-9 && r.yh > ry + 1e-9)
          block_[static_cast<size_t>(j)].push_back({r.xl, r.xh});
      }
    };
    for (const Cell& c : nl.cells())
      if (!c.movable()) add_blockage(c.bounds());

    row_of_cell_.assign(nl.num_cells(), -1);
    for (CellId id : nl.movable_cells()) {
      const Cell& c = nl.cell(id);
      if (c.is_macro()) {
        add_blockage({p.x[id] - c.width / 2.0, p.y[id] - c.height / 2.0,
                      p.x[id] + c.width / 2.0, p.y[id] + c.height / 2.0});
        continue;
      }
      const long j = row_of(p.y[id] - c.height / 2.0 + 1e-9);
      if (j < 0 || j >= static_cast<long>(rows.size())) continue;
      cells_[static_cast<size_t>(j)].push_back(id);
      row_of_cell_[id] = j;
    }
    for (auto& rc : cells_)
      std::sort(rc.begin(), rc.end(),
                [&](CellId a, CellId b) { return p.x[a] < p.x[b]; });
    for (auto& bl : block_) std::sort(bl.begin(), bl.end());
  }

  size_t num_rows() const { return cells_.size(); }
  long row_of(double y) const {
    return static_cast<long>(std::floor((y - y0_) / row_h_));
  }
  double row_y(long j) const { return y0_ + static_cast<double>(j) * row_h_; }
  long row_of_cell(CellId id) const { return row_of_cell_[id]; }
  const std::vector<CellId>& row_cells(long j) const {
    return cells_[static_cast<size_t>(j)];
  }

  double left_x(CellId id) const {
    return p_.x[id] - nl_.cell(id).width / 2.0;
  }
  double right_x(CellId id) const {
    return p_.x[id] + nl_.cell(id).width / 2.0;
  }

  /// Free interval around slot `k` in row `j` containing `probe`:
  /// [end of previous obstacle, start of next obstacle], considering
  /// neighbour cells and blockages. Returns an empty (hi < lo) gap when the
  /// probe sits inside a blockage. With k == cells in row, the "gap" is
  /// after the last cell.
  struct Gap {
    double lo, hi;
  };
  Gap gap_around(long j, size_t k, double probe,
                 CellId ignore = kInvalid) const {
    const auto& rc = cells_[static_cast<size_t>(j)];
    const Row& row = nl_.rows()[static_cast<size_t>(j)];
    double lo = row.xl, hi = row.xh;
    // Previous / next standard cell (skipping `ignore`).
    for (size_t i = k; i-- > 0;) {
      if (rc[i] == ignore) continue;
      lo = std::max(lo, right_x(rc[i]));
      break;
    }
    for (size_t i = k; i < rc.size(); ++i) {
      if (rc[i] == ignore) continue;
      hi = std::min(hi, left_x(rc[i]));
      break;
    }
    if (hi < lo) return {0.0, -1.0};
    // Blockages shrink the interval around the probe point.
    probe = std::clamp(probe, lo, hi);
    for (const auto& [bl, bh] : block_[static_cast<size_t>(j)]) {
      if (bh <= probe) lo = std::max(lo, bh);
      if (bl >= probe) {
        hi = std::min(hi, bl);
        break;
      }
      if (bl < probe && bh > probe) return {0.0, -1.0};  // inside blockage
    }
    return {lo, hi};
  }

  /// True when any blockage intersects the open interval (lo, hi) of row j.
  bool blocked_in(long j, double lo, double hi) const {
    for (const auto& [bl, bh] : block_[static_cast<size_t>(j)]) {
      if (bl >= hi) break;
      if (bh > lo && bl < hi) return true;
    }
    return false;
  }

  /// Index of the first cell in row j with center x >= x.
  size_t slot_of_x(long j, double x) const {
    const auto& rc = cells_[static_cast<size_t>(j)];
    return static_cast<size_t>(
        std::lower_bound(rc.begin(), rc.end(), x,
                         [&](CellId id, double v) { return p_.x[id] < v; }) -
        rc.begin());
  }

  /// Moves cell to row j at center x (caller guarantees the spot is free).
  void commit_move(CellId id, long j, double x) {
    const long old_row = row_of_cell_[id];
    auto& src = cells_[static_cast<size_t>(old_row)];
    src.erase(std::find(src.begin(), src.end(), id));
    p_.x[id] = x;
    p_.y[id] = row_y(j) + nl_.cell(id).height / 2.0;
    auto& dst = cells_[static_cast<size_t>(j)];
    dst.insert(dst.begin() + static_cast<long>(slot_of_x(j, x)), id);
    row_of_cell_[id] = j;
  }

  /// Swaps the positions of two cells (rows updated).
  void commit_swap(CellId a, CellId b) {
    const long ja = row_of_cell_[a], jb = row_of_cell_[b];
    const double xa = p_.x[a], xb = p_.x[b];
    auto& ra = cells_[static_cast<size_t>(ja)];
    ra.erase(std::find(ra.begin(), ra.end(), a));
    auto& rb = cells_[static_cast<size_t>(jb)];
    rb.erase(std::find(rb.begin(), rb.end(), b));
    p_.x[a] = xb;
    p_.y[a] = row_y(jb) + nl_.cell(a).height / 2.0;
    p_.x[b] = xa;
    p_.y[b] = row_y(ja) + nl_.cell(b).height / 2.0;
    auto& na = cells_[static_cast<size_t>(jb)];
    na.insert(na.begin() + static_cast<long>(slot_of_x(jb, p_.x[a])), a);
    auto& nb = cells_[static_cast<size_t>(ja)];
    nb.insert(nb.begin() + static_cast<long>(slot_of_x(ja, p_.x[b])), b);
    row_of_cell_[a] = jb;
    row_of_cell_[b] = ja;
  }

  static constexpr CellId kInvalid = std::numeric_limits<CellId>::max();

 private:
  const Netlist& nl_;
  Placement& p_;
  double row_h_ = 1.0, y0_ = 0.0;
  std::vector<std::vector<CellId>> cells_;
  std::vector<std::vector<std::pair<double, double>>> block_;
  std::vector<long> row_of_cell_;
};

/// Optimal region of a cell: median interval of its incident nets' bounds
/// computed with the cell's pins removed.
void optimal_region(const Netlist& nl, const Placement& p, CellId id,
                    double& ox, double& oy) {
  std::vector<double> xs, ys;
  for (NetId e : nl.nets_of_cell(id)) {
    const Net& net = nl.net(e);
    double xl = std::numeric_limits<double>::infinity(), xh = -xl;
    double yl = xl, yh = -xl;
    bool any = false;
    for (uint32_t k = 0; k < net.num_pins; ++k) {
      const Pin& pin = nl.pin(net.first_pin + k);
      if (pin.cell == id) continue;
      any = true;
      xl = std::min(xl, p.x[pin.cell] + pin.dx);
      xh = std::max(xh, p.x[pin.cell] + pin.dx);
      yl = std::min(yl, p.y[pin.cell] + pin.dy);
      yh = std::max(yh, p.y[pin.cell] + pin.dy);
    }
    if (!any) continue;
    xs.push_back(xl);
    xs.push_back(xh);
    ys.push_back(yl);
    ys.push_back(yh);
  }
  if (xs.empty()) {
    ox = p.x[id];
    oy = p.y[id];
    return;
  }
  auto med = [](std::vector<double>& v) {
    const size_t m = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(m), v.end());
    return v[m];
  };
  ox = med(xs);
  oy = med(ys);
}

}  // namespace

DetailedPlacer::DetailedPlacer(const Netlist& nl, DetailedOptions opts)
    : nl_(nl), opts_(opts) {}

DetailedResult DetailedPlacer::refine(Placement& p) const {
  DetailedResult result;
  // Latches result.cancelled once the cancel flag is seen raised.
  const auto stop = [&] {
    if (cancel_requested()) result.cancelled = true;
    return result.cancelled;
  };
  result.initial_hpwl = hpwl(nl_, p);
  if (nl_.rows().empty()) {
    result.final_hpwl = result.initial_hpwl;
    return result;
  }

  RowView view(nl_, p);
  // Per-net cost cache: "before" costs are lookups, only mutated
  // configurations need fresh bounding boxes.
  IncrementalHpwl eval(nl_, p);
  std::vector<NetId> scratch;
  double current = result.initial_hpwl;

  for (int pass = 0; pass < opts_.max_passes && !stop(); ++pass) {
    double pass_start = current;

    // ---- global / vertical swap ---------------------------------------
    if (opts_.global_swap) {
      for (CellId id : nl_.movable_cells()) {
        if (stop()) break;
        const Cell& c = nl_.cell(id);
        if (c.is_macro() || view.row_of_cell(id) < 0) continue;
        double ox, oy;
        optimal_region(nl_, p, id, ox, oy);
        if (std::abs(ox - p.x[id]) + std::abs(oy - p.y[id]) <
            nl_.row_height())
          continue;

        const long jt = std::clamp<long>(
            view.row_of(oy - c.height / 2.0), 0,
            static_cast<long>(view.num_rows()) - 1);
        bool moved = false;
        // Try a free gap in the target row (and its neighbours).
        for (long dj : {0L, -1L, 1L}) {
          const long j = jt + dj;
          if (j < 0 || j >= static_cast<long>(view.num_rows())) continue;
          const size_t slot = view.slot_of_x(j, ox);
          const RowView::Gap gap = view.gap_around(j, slot, ox, id);
          if (gap.hi - gap.lo < c.width) continue;
          const double x =
              std::clamp(ox, gap.lo + c.width / 2.0, gap.hi - c.width / 2.0);
          const double before = eval.incident_cost(id);
          const double old_x = p.x[id], old_y = p.y[id];
          p.x[id] = x;
          p.y[id] = view.row_y(j) + c.height / 2.0;
          const double after = eval.fresh_incident_cost(id);
          p.x[id] = old_x;
          p.y[id] = old_y;
          if (after < before - 1e-9) {
            current += after - before;
            view.commit_move(id, j, x);
            eval.refresh(id);
            moved = true;
            break;
          }
        }
        if (moved) continue;

        // Swap with the cell nearest the optimal point (equal width ⇒
        // always legal; unequal widths accepted when both fit).
        const long j = jt;
        const auto& rc = view.row_cells(j);
        if (rc.empty()) continue;
        size_t slot = view.slot_of_x(j, ox);
        if (slot >= rc.size()) slot = rc.size() - 1;
        const CellId other = rc[slot];
        if (other == id || nl_.cell(other).is_macro()) continue;
        const Cell& oc = nl_.cell(other);
        // Position exchange is guaranteed legal only for equal widths;
        // unequal-width swaps would need a repacking step.
        if (std::abs(oc.width - c.width) > 1e-9) continue;
        const double before = eval.incident_cost(id, other);
        const double ax = p.x[id], ay = p.y[id];
        const double bx = p.x[other], by = p.y[other];
        p.x[id] = bx;
        p.y[id] = by;
        p.x[other] = ax;
        p.y[other] = ay;
        const double after = eval.fresh_incident_cost(id, other);
        p.x[id] = ax;
        p.y[id] = ay;
        p.x[other] = bx;
        p.y[other] = by;
        if (after < before - 1e-9) {
          current += after - before;
          view.commit_swap(id, other);
          eval.refresh(id, other);
        }
      }
    }

    // ---- local reordering ----------------------------------------------
    if (opts_.local_reorder) {
      constexpr int kWindow = 3;  // cells per window; all orders are tried
      for (long j = 0; j < static_cast<long>(view.num_rows()) && !stop();
           ++j) {
        const auto& rc = view.row_cells(j);
        if (static_cast<int>(rc.size()) < kWindow) continue;
        for (size_t start = 0;
             start + static_cast<size_t>(kWindow) <= rc.size(); ++start) {
          if (stop()) break;
          // Window cells and the free span they may occupy.
          std::vector<CellId> win(rc.begin() + static_cast<long>(start),
                                  rc.begin() + static_cast<long>(start) +
                                      kWindow);
          const RowView::Gap left =
              view.gap_around(j, start, view.left_x(win[0]), win[0]);
          double span_lo = std::max(left.lo, view.left_x(win[0]));
          double span_hi = view.right_x(win.back());
          // Packing would slide cells across any blockage inside the span.
          if (view.blocked_in(j, span_lo, span_hi)) continue;

          std::vector<CellId> order = win;
          std::sort(order.begin(), order.end());
          double best_cost = std::numeric_limits<double>::infinity();
          std::vector<CellId> best_order;
          std::vector<double> best_x;
          // Evaluate permutations by packing from span_lo; only the window
          // cells' coordinates are saved and restored.
          std::vector<double> save_x(win.size()), save_y(win.size());
          for (int k = 0; k < kWindow; ++k) {
            save_x[static_cast<size_t>(k)] = p.x[win[static_cast<size_t>(k)]];
            save_y[static_cast<size_t>(k)] = p.y[win[static_cast<size_t>(k)]];
          }
          scratch.clear();
          for (CellId id : win)
            for (NetId e : nl_.nets_of_cell(id)) scratch.push_back(e);
          std::sort(scratch.begin(), scratch.end());
          scratch.erase(std::unique(scratch.begin(), scratch.end()),
                        scratch.end());
          const std::vector<NetId> nets = scratch;
          auto nets_cost = [&] {
            double s = 0.0;
            for (NetId e : nets) s += nl_.net(e).weight * net_hpwl(nl_, p, e);
            return s;
          };
          const double base_cost = nets_cost();

          do {
            double x = span_lo;
            bool fits = true;
            std::vector<double> xs;
            for (CellId id : order) {
              const double wid = nl_.cell(id).width;
              xs.push_back(x + wid / 2.0);
              x += wid;
            }
            if (x > span_hi + 1e-9) fits = false;
            if (fits) {
              for (size_t k = 0; k < order.size(); ++k)
                p.x[order[k]] = xs[k];
              const double cost = nets_cost();
              if (cost < best_cost) {
                best_cost = cost;
                best_order = order;
                best_x = xs;
              }
              // Restore.
              for (int k = 0; k < kWindow; ++k) {
                p.x[win[static_cast<size_t>(k)]] =
                    save_x[static_cast<size_t>(k)];
              }
            }
          } while (std::next_permutation(order.begin(), order.end()));

          if (!best_order.empty() && best_cost < base_cost - 1e-9) {
            current += best_cost - base_cost;
            // Apply: move cells via the view so ordering stays consistent.
            for (size_t k = 0; k < best_order.size(); ++k) {
              view.commit_move(best_order[k], j, best_x[k]);
              eval.refresh(best_order[k]);
            }
          }
        }
      }
    }

    // ---- row shift (L1 clumping per row) --------------------------------
    if (opts_.row_shift) {
      for (long j = 0; j < static_cast<long>(view.num_rows()) && !stop();
           ++j) {
        const std::vector<CellId> rc = view.row_cells(j);  // copy: stable
        if (rc.size() < 2) continue;
        // Preferred positions (medians) and clumping within free spans.
        // Process contiguous runs between blockages independently.
        size_t run_start = 0;
        while (run_start < rc.size() && !stop()) {
          // Extend run while consecutive cells share a free span (no
          // blockage between them).
          size_t run_end = run_start;
          while (run_end + 1 < rc.size() &&
                 !view.blocked_in(j, view.right_x(rc[run_end]),
                                  view.left_x(rc[run_end + 1]))) {
            ++run_end;
          }

          // Clumping over [run_start, run_end].
          const RowView::Gap left_gap = view.gap_around(
              j, run_start, p.x[rc[run_start]], rc[run_start]);
          const RowView::Gap right_gap =
              view.gap_around(j, run_end, p.x[rc[run_end]], rc[run_end]);
          if (left_gap.hi < left_gap.lo || right_gap.hi < right_gap.lo) {
            run_start = run_end + 1;
            continue;
          }
          const double span_lo = left_gap.lo;
          const double span_hi = right_gap.hi;

          struct Cluster {
            double width = 0.0;
            std::vector<double> prefs;  // preferred left-x minus offset
            double pos = 0.0;           // left x of cluster
            size_t first, last;
          };
          std::vector<Cluster> clusters;
          for (size_t k = run_start; k <= run_end; ++k) {
            const CellId id = rc[k];
            double ox, oy;
            optimal_region(nl_, p, id, ox, oy);
            Cluster cl;
            cl.width = nl_.cell(id).width;
            cl.prefs = {ox - nl_.cell(id).width / 2.0};
            cl.first = cl.last = k;
            // Desired left x clamped into the span.
            auto place = [&](Cluster& c2) {
              std::vector<double> v = c2.prefs;
              const size_t m = v.size() / 2;
              std::nth_element(v.begin(), v.begin() + static_cast<long>(m),
                               v.end());
              c2.pos = std::clamp(v[m], span_lo,
                                  std::max(span_lo, span_hi - c2.width));
            };
            place(cl);
            clusters.push_back(std::move(cl));
            // Merge while overlapping predecessor.
            while (clusters.size() > 1) {
              Cluster& prev = clusters[clusters.size() - 2];
              Cluster& curr = clusters.back();
              if (prev.pos + prev.width <= curr.pos + 1e-9) break;
              // Merge curr into prev: shift curr's prefs by prev.width.
              for (double pf : curr.prefs)
                prev.prefs.push_back(pf - prev.width);
              prev.width += curr.width;
              prev.last = curr.last;
              clusters.pop_back();
              place(prev);
            }
          }

          // Evaluate and apply if the row's incident cost improves.
          std::vector<double> old_x(run_end - run_start + 1);
          for (size_t k = run_start; k <= run_end; ++k)
            old_x[k - run_start] = p.x[rc[k]];
          scratch.clear();
          for (size_t k = run_start; k <= run_end; ++k)
            for (NetId e : nl_.nets_of_cell(rc[k])) scratch.push_back(e);
          std::sort(scratch.begin(), scratch.end());
          scratch.erase(std::unique(scratch.begin(), scratch.end()),
                        scratch.end());
          double before = 0.0;
          for (NetId e : scratch) before += eval.net_cost(e);

          for (const Cluster& cl : clusters) {
            double x = cl.pos;
            for (size_t k = cl.first; k <= cl.last; ++k) {
              p.x[rc[k]] = x + nl_.cell(rc[k]).width / 2.0;
              x += nl_.cell(rc[k]).width;
            }
          }
          double after = 0.0;
          for (NetId e : scratch)
            after += nl_.net(e).weight * net_hpwl(nl_, p, e);
          if (after < before - 1e-9) {
            current += after - before;
            for (size_t k = run_start; k <= run_end; ++k)
              eval.refresh(rc[k]);
          } else {
            for (size_t k = run_start; k <= run_end; ++k)
              p.x[rc[k]] = old_x[k - run_start];
          }

          run_start = run_end + 1;
        }
      }
    }

    if (result.cancelled) break;  // a cut-short pass is not counted
    ++result.passes;
    constexpr double kMinRelativeGain = 5e-4;  // a smaller gain ends DP
    if (pass_start - current < kMinRelativeGain * pass_start) break;
  }

  result.final_hpwl = hpwl(nl_, p);
  return result;
}

}  // namespace complx
