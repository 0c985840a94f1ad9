#include "timing/sta.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/log.h"
#include "util/rng.h"

namespace complx {

std::vector<char> choose_registers(const Netlist& nl, double fraction,
                                   uint64_t seed) {
  std::vector<char> regs(nl.num_cells(), 0);
  Rng rng(seed);
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    const Cell& c = nl.cell(id);
    if (!c.movable()) {
      regs[id] = 1;  // pads / fixed blocks are timing boundaries
    } else if (!c.is_macro() && rng.uniform() < fraction) {
      regs[id] = 1;
    }
  }
  return regs;
}

TimingGraph::TimingGraph(const Netlist& nl, std::vector<char> is_register,
                         const TimingOptions& opts)
    : nl_(nl), is_register_(std::move(is_register)), opts_(opts) {
  // Build combinational in-degrees: edge driver_cell -> sink_cell exists for
  // every net pin pair (driver, sink) where the SINK is combinational.
  const size_t n = nl.num_cells();
  std::vector<uint32_t> in_degree(n, 0);
  for (NetId e = 0; e < nl.num_nets(); ++e) {
    const Net& net = nl.net(e);
    if (net.num_pins < 2) continue;
    const CellId driver = nl.pin(net.first_pin).cell;
    for (uint32_t k = 1; k < net.num_pins; ++k) {
      const CellId sink = nl.pin(net.first_pin + k).cell;
      if (sink == driver || is_register_[sink]) continue;
      ++in_degree[sink];
    }
  }

  // Kahn's algorithm; registers and zero-in-degree cells seed the order.
  std::queue<CellId> ready;
  for (CellId c = 0; c < n; ++c)
    if (is_register_[c] || in_degree[c] == 0) ready.push(c);
  std::vector<char> emitted(n, 0);
  topo_order_.reserve(n);
  while (!ready.empty()) {
    const CellId c = ready.front();
    ready.pop();
    if (emitted[c]) continue;
    emitted[c] = 1;
    topo_order_.push_back(c);
    for (NetId e : nl.nets_of_cell(c)) {
      const Net& net = nl.net(e);
      if (nl.pin(net.first_pin).cell != c) continue;  // c must drive
      for (uint32_t k = 1; k < net.num_pins; ++k) {
        const CellId sink = nl.pin(net.first_pin + k).cell;
        if (sink == c || is_register_[sink]) continue;
        if (--in_degree[sink] == 0) ready.push(sink);
      }
    }
  }
  if (topo_order_.size() < n) {
    had_cycles_ = true;
    log_warn("timing: %zu cells in combinational cycles (best-effort STA)",
             n - topo_order_.size());
    for (CellId c = 0; c < n; ++c)
      if (!emitted[c]) topo_order_.push_back(c);
  }
}

double TimingGraph::edge_delay(const Placement& p, PinId driver,
                               PinId sink) const {
  const Pin& d = nl_.pin(driver);
  const Pin& s = nl_.pin(sink);
  const double dist = std::abs(p.x[d.cell] + d.dx - p.x[s.cell] - s.dx) +
                      std::abs(p.y[d.cell] + d.dy - p.y[s.cell] - s.dy);
  return kCellDelay + opts_.wire_delay_per_unit * dist;
}

TimingReport TimingGraph::analyze(const Placement& p) const {
  const size_t n = nl_.num_cells();
  TimingReport rep;
  rep.arrival.assign(n, 0.0);

  // Forward propagation in topological order. Registers launch at t = 0;
  // their data arrival (for slack) is tracked separately below.
  Vec data_arrival(n, 0.0);  // latest input arrival, incl. at registers
  for (CellId c : topo_order_) {
    for (NetId e : nl_.nets_of_cell(c)) {
      const Net& net = nl_.net(e);
      if (nl_.pin(net.first_pin).cell != c) continue;
      const double launch = is_register_[c] ? 0.0 : rep.arrival[c];
      for (uint32_t k = 1; k < net.num_pins; ++k) {
        const CellId sink = nl_.pin(net.first_pin + k).cell;
        if (sink == c) continue;
        const double t = launch + edge_delay(p, net.first_pin,
                                             net.first_pin + k);
        data_arrival[sink] = std::max(data_arrival[sink], t);
        if (!is_register_[sink])
          rep.arrival[sink] = std::max(rep.arrival[sink], t);
      }
    }
  }

  double max_arrival = 0.0;
  for (CellId c = 0; c < n; ++c)
    max_arrival = std::max(max_arrival, data_arrival[c]);
  rep.period = opts_.period > 0.0 ? opts_.period : 1.05 * max_arrival;

  // Backward propagation: endpoints (register/pad data inputs) require the
  // period; combinational cells require min over fanout.
  rep.required.assign(n, rep.period);
  for (auto it = topo_order_.rbegin(); it != topo_order_.rend(); ++it) {
    const CellId c = *it;
    if (is_register_[c]) continue;
    double req = rep.period;
    for (NetId e : nl_.nets_of_cell(c)) {
      const Net& net = nl_.net(e);
      if (nl_.pin(net.first_pin).cell != c) continue;
      for (uint32_t k = 1; k < net.num_pins; ++k) {
        const CellId sink = nl_.pin(net.first_pin + k).cell;
        if (sink == c) continue;
        const double d = edge_delay(p, net.first_pin, net.first_pin + k);
        req = std::min(req, rep.required[sink] - d);
      }
    }
    rep.required[c] = req;
  }

  // Endpoint detection: registers, plus primary outputs (cells that drive
  // nothing at all).
  std::vector<char> has_fanout(n, 0);
  for (NetId e = 0; e < nl_.num_nets(); ++e) {
    const Net& net = nl_.net(e);
    if (net.num_pins < 2) continue;
    const CellId driver = nl_.pin(net.first_pin).cell;
    for (uint32_t k = 1; k < net.num_pins; ++k) {
      if (nl_.pin(net.first_pin + k).cell != driver) has_fanout[driver] = 1;
    }
  }

  rep.slack.assign(n, 0.0);
  rep.worst_slack = std::numeric_limits<double>::infinity();
  for (CellId c = 0; c < n; ++c) {
    // Slack at a cell: how much later its data could arrive. Endpoints use
    // data arrival vs period; internal cells use required − arrival.
    const bool endpoint = is_register_[c] || !has_fanout[c];
    const double arr = is_register_[c] ? data_arrival[c] : rep.arrival[c];
    const double req = is_register_[c] ? rep.period : rep.required[c];
    rep.slack[c] = req - arr;
    if (rep.slack[c] < 0.0) ++rep.violations;
    // The worst ENDPOINT seeds critical-path extraction; ties resolve to
    // the true path terminus rather than an internal cell.
    if (endpoint && rep.slack[c] < rep.worst_slack) {
      rep.worst_slack = rep.slack[c];
      rep.worst_endpoint = c;
    }
  }
  return rep;
}

std::vector<CellId> TimingGraph::critical_path(
    const Placement& p, const TimingReport& report) const {
  // Walk backward from the worst endpoint along max-arrival predecessors.
  std::vector<CellId> path;
  CellId cur = report.worst_endpoint;
  path.push_back(cur);
  for (size_t guard = 0; guard < nl_.num_cells(); ++guard) {
    // Find the fan-in edge whose launch + delay equals our data arrival.
    double best = -1.0;
    CellId best_pred = cur;
    for (NetId e : nl_.nets_of_cell(cur)) {
      const Net& net = nl_.net(e);
      const CellId driver = nl_.pin(net.first_pin).cell;
      if (driver == cur) continue;
      // Is cur a sink of this net?
      bool is_sink = false;
      uint32_t sink_pin = 0;
      for (uint32_t k = 1; k < net.num_pins; ++k) {
        if (nl_.pin(net.first_pin + k).cell == cur) {
          is_sink = true;
          sink_pin = net.first_pin + k;
          break;
        }
      }
      if (!is_sink) continue;
      const double launch =
          is_register_[driver] ? 0.0 : report.arrival[driver];
      const double t = launch + edge_delay(p, net.first_pin, sink_pin);
      if (t > best) {
        best = t;
        best_pred = driver;
      }
    }
    if (best_pred == cur) break;
    path.push_back(best_pred);
    if (is_register_[best_pred]) break;  // path start reached
    cur = best_pred;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<NetId> TimingGraph::path_nets(
    const std::vector<CellId>& path) const {
  std::vector<NetId> nets;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    // The net driven by path[i] that contains path[i+1] as a sink.
    for (NetId e : nl_.nets_of_cell(path[i])) {
      const Net& net = nl_.net(e);
      if (nl_.pin(net.first_pin).cell != path[i]) continue;
      for (uint32_t k = 1; k < net.num_pins; ++k) {
        if (nl_.pin(net.first_pin + k).cell == path[i + 1]) {
          nets.push_back(e);
          k = net.num_pins;
          break;
        }
      }
    }
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

}  // namespace complx
