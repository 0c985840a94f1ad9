#include "route/global_router.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace complx {

GlobalRouter::GlobalRouter(const Netlist& nl, const RouterOptions& opts)
    : nl_(nl), opts_(opts), core_(nl.core()) {
  gx_ = opts.gcells_x;
  gy_ = opts.gcells_y;
  if (gx_ == 0 || gy_ == 0) {
    const double edge = 6.0 * nl.row_height();
    gx_ = std::clamp<size_t>(static_cast<size_t>(core_.width() / edge), 4,
                             256);
    gy_ = std::clamp<size_t>(static_cast<size_t>(core_.height() / edge), 4,
                             256);
  }
  gw_ = core_.width() / static_cast<double>(gx_);
  gh_ = core_.height() / static_cast<double>(gy_);
  cap_ = opts.edge_capacity_tracks;
  h_usage_.assign((gx_ - 1) * gy_, 0.0);
  v_usage_.assign(gx_ * (gy_ - 1), 0.0);
  h_history_.assign(h_usage_.size(), 0.0);
  v_history_.assign(v_usage_.size(), 0.0);
}

size_t GlobalRouter::gcell_x_of(double x) const {
  const long k = static_cast<long>(std::floor((x - core_.xl) / gw_));
  return static_cast<size_t>(std::clamp(k, 0L, static_cast<long>(gx_) - 1));
}
size_t GlobalRouter::gcell_y_of(double y) const {
  const long k = static_cast<long>(std::floor((y - core_.yl) / gh_));
  return static_cast<size_t>(std::clamp(k, 0L, static_cast<long>(gy_) - 1));
}

double GlobalRouter::edge_cost(double usage, double history) const {
  // Cost of pushing ONE MORE wire through the edge.
  const double over = std::max(0.0, usage + 1.0 - cap_);
  return 1.0 + opts_.overflow_penalty * over + history;
}

namespace {
/// Visits [lo, hi) ordered edge indices of a straight run.
template <typename Fn>
void run_edges(size_t fixed, size_t from, size_t to, Fn&& fn) {
  const size_t lo = std::min(from, to), hi = std::max(from, to);
  for (size_t k = lo; k < hi; ++k) fn(fixed, k);
}
}  // namespace

double GlobalRouter::path_cost(size_t ax, size_t ay, size_t bx, size_t by,
                               size_t mid, bool horizontal_first) const {
  double cost = 0.0;
  if (horizontal_first) {
    // Row ay to column mid, vertical along mid, row by to bx.
    run_edges(ay, ax, mid, [&](size_t j, size_t i) {
      cost += edge_cost(h_usage_[h_idx(i, j)], h_history_[h_idx(i, j)]);
    });
    run_edges(mid, ay, by, [&](size_t i, size_t j) {
      cost += edge_cost(v_usage_[v_idx(i, j)], v_history_[v_idx(i, j)]);
    });
    run_edges(by, mid, bx, [&](size_t j, size_t i) {
      cost += edge_cost(h_usage_[h_idx(i, j)], h_history_[h_idx(i, j)]);
    });
  } else {
    // Column ax to row mid, horizontal along mid, column bx to by.
    run_edges(ax, ay, mid, [&](size_t i, size_t j) {
      cost += edge_cost(v_usage_[v_idx(i, j)], v_history_[v_idx(i, j)]);
    });
    run_edges(mid, ax, bx, [&](size_t j, size_t i) {
      cost += edge_cost(h_usage_[h_idx(i, j)], h_history_[h_idx(i, j)]);
    });
    run_edges(bx, mid, by, [&](size_t i, size_t j) {
      cost += edge_cost(v_usage_[v_idx(i, j)], v_history_[v_idx(i, j)]);
    });
  }
  return cost;
}

void GlobalRouter::apply_path(size_t ax, size_t ay, size_t bx, size_t by,
                              size_t mid, bool horizontal_first,
                              double delta) {
  if (horizontal_first) {
    run_edges(ay, ax, mid,
              [&](size_t j, size_t i) { h_usage_[h_idx(i, j)] += delta; });
    run_edges(mid, ay, by,
              [&](size_t i, size_t j) { v_usage_[v_idx(i, j)] += delta; });
    run_edges(by, mid, bx,
              [&](size_t j, size_t i) { h_usage_[h_idx(i, j)] += delta; });
  } else {
    run_edges(ax, ay, mid,
              [&](size_t i, size_t j) { v_usage_[v_idx(i, j)] += delta; });
    run_edges(mid, ax, bx,
              [&](size_t j, size_t i) { h_usage_[h_idx(i, j)] += delta; });
    run_edges(bx, mid, by,
              [&](size_t i, size_t j) { v_usage_[v_idx(i, j)] += delta; });
  }
}

double GlobalRouter::route_connection(const Connection& c) {
  // Candidate families: "horizontal_first" bends at column mid ∈ [ax..bx]
  // plus the dual bending at row mid ∈ [ay..by]; L shapes are the extremes.
  double best_cost = std::numeric_limits<double>::infinity();
  size_t best_mid = c.ax;
  bool best_hf = true;

  auto consider = [&](size_t mid, bool hf) {
    const double cost = path_cost(c.ax, c.ay, c.bx, c.by, mid, hf);
    if (cost < best_cost) {
      best_cost = cost;
      best_mid = mid;
      best_hf = hf;
    }
  };

  const size_t xlo = std::min(c.ax, c.bx), xhi = std::max(c.ax, c.bx);
  const size_t ylo = std::min(c.ay, c.by), yhi = std::max(c.ay, c.by);
  constexpr size_t kZPatterns = 3;  // intermediate bends per direction
  for (size_t t = 0; t <= kZPatterns + 1; ++t) {
    const size_t mx = xlo + (xhi - xlo) * t / (kZPatterns + 1);
    consider(mx, true);
    const size_t my = ylo + (yhi - ylo) * t / (kZPatterns + 1);
    consider(my, false);
  }

  apply_path(c.ax, c.ay, c.bx, c.by, best_mid, best_hf, +1.0);
  // Remember the choice for rip-up.
  const size_t idx = static_cast<size_t>(&c - connections_.data());
  choice_[idx] = {best_mid, best_hf ? 1 : 0};

  const double len_gcells =
      static_cast<double>(xhi - xlo) + static_cast<double>(yhi - ylo);
  return len_gcells;
}

RouteStats GlobalRouter::route(const Placement& p) {
  std::fill(h_usage_.begin(), h_usage_.end(), 0.0);
  std::fill(v_usage_.begin(), v_usage_.end(), 0.0);
  std::fill(h_history_.begin(), h_history_.end(), 0.0);
  std::fill(v_history_.begin(), v_history_.end(), 0.0);
  connections_.clear();

  RouteStats stats;

  // --- net decomposition: Manhattan MST over distinct pin gcells ---------
  std::vector<std::pair<size_t, size_t>> nodes;
  for (NetId e = 0; e < nl_.num_nets(); ++e) {
    const Net& net = nl_.net(e);
    if (net.num_pins < 2) continue;
    if (net.num_pins > opts_.max_net_degree) {
      ++stats.skipped_nets;
      continue;
    }
    nodes.clear();
    for (uint32_t k = 0; k < net.num_pins; ++k) {
      const Pin& pin = nl_.pin(net.first_pin + k);
      const size_t i = gcell_x_of(p.x[pin.cell] + pin.dx);
      const size_t j = gcell_y_of(p.y[pin.cell] + pin.dy);
      if (std::find(nodes.begin(), nodes.end(), std::make_pair(i, j)) ==
          nodes.end())
        nodes.push_back({i, j});
    }
    if (nodes.size() < 2) continue;

    // Prim's MST on Manhattan gcell distance.
    std::vector<char> in_tree(nodes.size(), 0);
    std::vector<double> dist(nodes.size(),
                             std::numeric_limits<double>::infinity());
    std::vector<size_t> parent(nodes.size(), 0);
    in_tree[0] = 1;
    auto manh = [&](size_t a, size_t b) {
      return std::abs(static_cast<double>(nodes[a].first) -
                      static_cast<double>(nodes[b].first)) +
             std::abs(static_cast<double>(nodes[a].second) -
                      static_cast<double>(nodes[b].second));
    };
    for (size_t v = 1; v < nodes.size(); ++v) {
      dist[v] = manh(0, v);
      parent[v] = 0;
    }
    for (size_t step = 1; step < nodes.size(); ++step) {
      size_t best = nodes.size();
      for (size_t v = 0; v < nodes.size(); ++v)
        if (!in_tree[v] && (best == nodes.size() || dist[v] < dist[best]))
          best = v;
      in_tree[best] = 1;
      connections_.push_back({nodes[parent[best]].first,
                              nodes[parent[best]].second, nodes[best].first,
                              nodes[best].second, e});
      for (size_t v = 0; v < nodes.size(); ++v) {
        if (in_tree[v]) continue;
        const double d = manh(best, v);
        if (d < dist[v]) {
          dist[v] = d;
          parent[v] = best;
        }
      }
    }
  }
  choice_.assign(connections_.size(), {0, 1});

  // --- initial routing -----------------------------------------------------
  for (const Connection& c : connections_)
    stats.wirelength += route_connection(c);
  stats.routed_connections = connections_.size();

  // --- rip-up and reroute on overflowed edges ------------------------------
  for (int round = 0; round < opts_.rip_up_rounds; ++round) {
    // Mark overflowed edges, bump history.
    bool any_overflow = false;
    for (size_t k = 0; k < h_usage_.size(); ++k) {
      if (h_usage_[k] > cap_) {
        h_history_[k] += opts_.history_increment;
        any_overflow = true;
      }
    }
    for (size_t k = 0; k < v_usage_.size(); ++k) {
      if (v_usage_[k] > cap_) {
        v_history_[k] += opts_.history_increment;
        any_overflow = true;
      }
    }
    if (!any_overflow) break;

    for (size_t ci = 0; ci < connections_.size(); ++ci) {
      const Connection& c = connections_[ci];
      // Does the current path touch an overflowed edge?
      bool congested = false;
      const auto [mid, hf] = choice_[ci];
      const auto probe_h = [&](size_t j, size_t i) {
        if (h_usage_[h_idx(i, j)] > cap_) congested = true;
      };
      const auto probe_v = [&](size_t i, size_t j) {
        if (v_usage_[v_idx(i, j)] > cap_) congested = true;
      };
      if (hf) {
        run_edges(c.ay, c.ax, mid, probe_h);
        run_edges(mid, c.ay, c.by, probe_v);
        run_edges(c.by, mid, c.bx, probe_h);
      } else {
        run_edges(c.ax, c.ay, mid, probe_v);
        run_edges(mid, c.ax, c.bx, probe_h);
        run_edges(c.bx, mid, c.by, probe_v);
      }
      if (!congested) continue;
      apply_path(c.ax, c.ay, c.bx, c.by, mid, hf != 0, -1.0);
      route_connection(c);
    }
  }

  // --- statistics -----------------------------------------------------------
  const double pitch = (gw_ + gh_) / 2.0;
  stats.wirelength *= pitch;
  for (double u : h_usage_) {
    const double over = std::max(0.0, u - cap_);
    stats.overflow += over;
    stats.max_overflow = std::max(stats.max_overflow, over);
    if (over > 0.0) ++stats.overflowed_edges;
  }
  for (double u : v_usage_) {
    const double over = std::max(0.0, u - cap_);
    stats.overflow += over;
    stats.max_overflow = std::max(stats.max_overflow, over);
    if (over > 0.0) ++stats.overflowed_edges;
  }
  return stats;
}

double GlobalRouter::h_edge_usage(size_t i, size_t j) const {
  return h_usage_[h_idx(i, j)];
}
double GlobalRouter::v_edge_usage(size_t i, size_t j) const {
  return v_usage_[v_idx(i, j)];
}

}  // namespace complx
