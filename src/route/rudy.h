// RUDY (Rectangular Uniform wire DensitY) congestion estimation — the
// router-free congestion model Ripple [18] uses to drive its routability-
// aware feasibility projection (the paper's Section 5 discusses how SimPLR
// calls a global router while Ripple "estimates congestion directly").
//
// Each net deposits uniform wire demand over its bounding box:
//   horizontal demand density = net width  / bbox area  (wire running in x)
//   vertical   demand density = net height / bbox area
// Demand is compared against per-bin track capacity derived from a
// wires-per-unit-length supply, yielding directional congestion maps.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.h"

namespace complx {

struct RudyOptions {
  size_t bins_x = 0;  ///< 0 = auto (~2 rows per bin edge... design sized)
  size_t bins_y = 0;
  /// Routing supply: track length available per unit chip area, per
  /// direction. The absolute value only shifts the congestion scale.
  double supply_per_area = 0.35;
};

class CongestionMap {
 public:
  CongestionMap(const Netlist& nl, const RudyOptions& opts);

  /// Accumulates demand from all nets at placement `p` (resets first).
  void build(const Placement& p);

  size_t bins_x() const { return bx_; }
  size_t bins_y() const { return by_; }

  /// Demand / capacity per direction; >1 means overcongested.
  double h_congestion(size_t i, size_t j) const {
    return h_demand_[idx(i, j)] / cap_;
  }
  double v_congestion(size_t i, size_t j) const {
    return v_demand_[idx(i, j)] / cap_;
  }
  /// max(h, v) congestion of the bin containing a point.
  double congestion_at(double x, double y) const;

  /// Peak and average of max-direction congestion over all bins.
  double peak_congestion() const;
  double avg_congestion() const;
  /// Fraction of bins with max-direction congestion above `limit`.
  double overcongested_fraction(double limit = 1.0) const;

  const Rect& core() const { return core_; }

 private:
  size_t idx(size_t i, size_t j) const { return j * bx_ + i; }
  size_t bin_x_of(double x) const;
  size_t bin_y_of(double y) const;
  /// Adds demand of nets [begin, end) into the given demand grids.
  void deposit_net_range(const Placement& p, size_t begin, size_t end,
                         std::vector<double>& h_out,
                         std::vector<double>& v_out) const;

  const Netlist& nl_;
  RudyOptions opts_;
  Rect core_;
  size_t bx_ = 1, by_ = 1;
  double bw_ = 1.0, bh_ = 1.0;
  double cap_ = 1.0;  ///< per-bin directional track capacity (length units)
  std::vector<double> h_demand_;
  std::vector<double> v_demand_;
};

}  // namespace complx
