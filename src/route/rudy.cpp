#include "route/rudy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/parallel.h"

namespace complx {

CongestionMap::CongestionMap(const Netlist& nl, const RudyOptions& opts)
    : nl_(nl), opts_(opts), core_(nl.core()) {
  bx_ = opts.bins_x;
  by_ = opts.bins_y;
  if (bx_ == 0 || by_ == 0) {
    // Bins ~6 rows on edge: fine enough to see hotspots, coarse enough for
    // a stable per-bin statistic.
    const double edge = 6.0 * nl.row_height();
    bx_ = std::max<size_t>(4, static_cast<size_t>(core_.width() / edge));
    by_ = std::max<size_t>(4, static_cast<size_t>(core_.height() / edge));
    bx_ = std::min<size_t>(bx_, 256);
    by_ = std::min<size_t>(by_, 256);
  }
  bw_ = core_.width() / static_cast<double>(bx_);
  bh_ = core_.height() / static_cast<double>(by_);
  // Track capacity: supply_per_area is track length per unit area; a bin of
  // area bw*bh offers supply_per_area * bw * bh length per direction.
  cap_ = std::max(1e-12, opts.supply_per_area * bw_ * bh_);
  h_demand_.assign(bx_ * by_, 0.0);
  v_demand_.assign(bx_ * by_, 0.0);
}

size_t CongestionMap::bin_x_of(double x) const {
  const long k = static_cast<long>(std::floor((x - core_.xl) / bw_));
  return static_cast<size_t>(std::clamp(k, 0L, static_cast<long>(bx_) - 1));
}
size_t CongestionMap::bin_y_of(double y) const {
  const long k = static_cast<long>(std::floor((y - core_.yl) / bh_));
  return static_cast<size_t>(std::clamp(k, 0L, static_cast<long>(by_) - 1));
}

void CongestionMap::deposit_net_range(const Placement& p, size_t begin,
                                      size_t end, std::vector<double>& h_out,
                                      std::vector<double>& v_out) const {
  const NetlistView v = nl_.view();
  // Degenerate (zero-extent) nets get this minimal bbox, in row heights.
  constexpr double kMinExtentRows = 1.0;
  const double min_ext = kMinExtentRows * nl_.row_height();
  for (size_t e = begin; e < end; ++e) {
    const Net& net = v.nets[e];
    if (net.num_pins < 2) continue;
    // Inline bbox over the pin SoA arrays (same arithmetic as net_bbox).
    Rect bb;
    {
      double xl = std::numeric_limits<double>::infinity(), xh = -xl;
      double yl = xl, yh = -xl;
      for (uint32_t k = net.first_pin; k < net.first_pin + net.num_pins;
           ++k) {
        const CellId c = v.pin_cell[k];
        const double px = p.x[c] + v.pin_dx[k];
        const double py = p.y[c] + v.pin_dy[k];
        xl = std::min(xl, px);
        xh = std::max(xh, px);
        yl = std::min(yl, py);
        yh = std::max(yh, py);
      }
      bb = {xl, yl, xh, yh};
    }
    // Degenerate boxes still consume local routing resources.
    if (bb.width() < min_ext) {
      const double c = (bb.xl + bb.xh) / 2.0;
      bb.xl = c - min_ext / 2.0;
      bb.xh = c + min_ext / 2.0;
    }
    if (bb.height() < min_ext) {
      const double c = (bb.yl + bb.yh) / 2.0;
      bb.yl = c - min_ext / 2.0;
      bb.yh = c + min_ext / 2.0;
    }
    bb = {std::max(bb.xl, core_.xl), std::max(bb.yl, core_.yl),
          std::min(bb.xh, core_.xh), std::min(bb.yh, core_.yh)};
    if (bb.empty()) continue;

    // RUDY: wire length w (resp. h) spread uniformly over the box.
    const double area = bb.area();
    const double h_density = net.weight * bb.width() / area;
    const double v_density = net.weight * bb.height() / area;

    const size_t i0 = bin_x_of(bb.xl), i1 = bin_x_of(bb.xh - 1e-12);
    const size_t j0 = bin_y_of(bb.yl), j1 = bin_y_of(bb.yh - 1e-12);
    for (size_t j = j0; j <= j1; ++j) {
      for (size_t i = i0; i <= i1; ++i) {
        const Rect bin{core_.xl + static_cast<double>(i) * bw_,
                       core_.yl + static_cast<double>(j) * bh_,
                       core_.xl + static_cast<double>(i + 1) * bw_,
                       core_.yl + static_cast<double>(j + 1) * bh_};
        const double ov = bin.overlap_area(bb);
        h_out[idx(i, j)] += h_density * ov;
        v_out[idx(i, j)] += v_density * ov;
      }
    }
  }
}

void CongestionMap::build(const Placement& p) {
  const size_t num_nets = nl_.num_nets();
  const Partition part = partition_range(num_nets, 1024, 32);
  if (part.parts <= 1) {  // historical serial path
    std::fill(h_demand_.begin(), h_demand_.end(), 0.0);
    std::fill(v_demand_.begin(), v_demand_.end(), 0.0);
    deposit_net_range(p, 0, num_nets, h_demand_, v_demand_);
    return;
  }

  // Per-block partial demand grids merged in block order — same
  // determinism scheme as DensityGrid (docs/PARALLELISM.md).
  const size_t bins = bx_ * by_;
  std::vector<std::vector<double>> h_part(part.parts), v_part(part.parts);
  parallel_for(
      num_nets,
      [&](size_t begin, size_t end) {
        const size_t blk = begin / part.chunk;
        h_part[blk].assign(bins, 0.0);
        v_part[blk].assign(bins, 0.0);
        deposit_net_range(p, begin, end, h_part[blk], v_part[blk]);
      },
      part.chunk);
  parallel_for(bins, [&](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      double h = 0.0, v = 0.0;
      for (size_t blk = 0; blk < part.parts; ++blk) {
        if (h_part[blk].empty()) continue;
        h += h_part[blk][b];
        v += v_part[blk][b];
      }
      h_demand_[b] = h;
      v_demand_[b] = v;
    }
  });
}

double CongestionMap::congestion_at(double x, double y) const {
  const size_t i = bin_x_of(x), j = bin_y_of(y);
  return std::max(h_congestion(i, j), v_congestion(i, j));
}

double CongestionMap::peak_congestion() const {
  double peak = 0.0;
  for (size_t j = 0; j < by_; ++j)
    for (size_t i = 0; i < bx_; ++i)
      peak = std::max(peak, std::max(h_congestion(i, j), v_congestion(i, j)));
  return peak;
}

double CongestionMap::avg_congestion() const {
  double s = 0.0;
  for (size_t j = 0; j < by_; ++j)
    for (size_t i = 0; i < bx_; ++i)
      s += std::max(h_congestion(i, j), v_congestion(i, j));
  return s / static_cast<double>(bx_ * by_);
}

double CongestionMap::overcongested_fraction(double limit) const {
  size_t over = 0;
  for (size_t j = 0; j < by_; ++j)
    for (size_t i = 0; i < bx_; ++i)
      if (std::max(h_congestion(i, j), v_congestion(i, j)) > limit) ++over;
  return static_cast<double>(over) / static_cast<double>(bx_ * by_);
}

}  // namespace complx
