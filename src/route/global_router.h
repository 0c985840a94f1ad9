// Coarse global routing over a GCell grid — the substrate SimPLR consults
// ("SimPLR calls a global router" — paper, Section 5) to score placements
// by routed congestion rather than by the RUDY proxy.
//
// Scope: classic academic global routing on a uniform grid.
//  * Multi-pin nets are decomposed into 2-pin connections by a Manhattan
//    minimum spanning tree (Prim; chain fallback for huge nets).
//  * Each connection is pattern-routed (both L shapes plus a family of
//    Z shapes), picking the cheapest path under congestion-dependent edge
//    costs.
//  * A few rip-up-and-reroute rounds with PathFinder-style history costs
//    resolve overflow.
//
// The router reports routed wirelength and edge overflow; it is an
// evaluator, not a sign-off router.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.h"

namespace complx {

struct RouterOptions {
  size_t gcells_x = 0;  ///< 0 = auto (~6 rows per gcell edge)
  size_t gcells_y = 0;
  /// Tracks crossing each gcell boundary per direction.
  double edge_capacity_tracks = 10.0;
  int rip_up_rounds = 3;
  /// Congestion cost growth: cost(e) = 1 + penalty·max(0, usage+1-cap) +
  /// history(e).
  double overflow_penalty = 2.0;
  double history_increment = 0.5;
  uint32_t max_net_degree = 64;  ///< larger nets are skipped (clock-like)
};

struct RouteStats {
  double wirelength = 0.0;  ///< total routed length (gcell units × pitch)
  double overflow = 0.0;    ///< Σ_e max(0, usage − capacity)
  double max_overflow = 0.0;
  size_t overflowed_edges = 0;
  size_t routed_connections = 0;
  size_t skipped_nets = 0;
};

class GlobalRouter {
 public:
  GlobalRouter(const Netlist& nl, const RouterOptions& opts);

  /// Routes all nets at placement `p` and returns aggregate statistics.
  RouteStats route(const Placement& p);

  size_t gcells_x() const { return gx_; }
  size_t gcells_y() const { return gy_; }

  /// Post-route per-edge usage inspection (for tests): usage of the
  /// horizontal edge between gcells (i, j) and (i+1, j), or the vertical
  /// edge between (i, j) and (i, j+1).
  double h_edge_usage(size_t i, size_t j) const;
  double v_edge_usage(size_t i, size_t j) const;

 private:
  struct Connection {
    size_t ax, ay, bx, by;  ///< gcell endpoints
    NetId net;
  };

  size_t gcell_x_of(double x) const;
  size_t gcell_y_of(double y) const;
  size_t h_idx(size_t i, size_t j) const { return j * (gx_ - 1) + i; }
  size_t v_idx(size_t i, size_t j) const { return j * gx_ + i; }

  double edge_cost(double usage, double history) const;
  /// Routes one connection along the cheapest pattern; writes the chosen
  /// path's edges into usage (+1 each). Returns the path length in gcells.
  double route_connection(const Connection& c);
  void unroute_connection(const Connection& c,
                          const std::vector<char>& path_unused);

  /// Cost and application of one monotone two-bend path through column
  /// `mid` (for vertical-ish) or row `mid` (horizontal-ish).
  double path_cost(size_t ax, size_t ay, size_t bx, size_t by, size_t mid,
                   bool horizontal_first) const;
  void apply_path(size_t ax, size_t ay, size_t bx, size_t by, size_t mid,
                  bool horizontal_first, double delta);

  const Netlist& nl_;
  RouterOptions opts_;
  Rect core_;
  size_t gx_ = 1, gy_ = 1;
  double gw_ = 1.0, gh_ = 1.0;
  double cap_ = 1.0;
  std::vector<double> h_usage_, v_usage_;
  std::vector<double> h_history_, v_history_;
  /// Chosen (mid, horizontal_first) per connection for rip-up.
  std::vector<std::pair<size_t, char>> choice_;
  std::vector<Connection> connections_;
};

}  // namespace complx
