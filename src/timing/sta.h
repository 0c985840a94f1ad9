// Lumped-delay static timing analysis over the placed netlist.
//
// Conventions: the FIRST pin of every net is its driver; remaining pins are
// sinks. Register cells begin and end timing paths. Edge delay from driver
// to sink is  kCellDelay + wire_delay_per_unit · (Manhattan pin distance) —
// the linear-delay model that net-weighting placement literature assumes
// (paper Section 5, "Extensions for timing- and power-driven placement").
//
// Combinational cycles (possible in synthetic netlists) are broken at
// arbitrary back edges with a warning; their cells get best-effort arrivals.
#pragma once

#include <vector>

#include "netlist/netlist.h"

namespace complx {

inline constexpr double kCellDelay = 1.0;  ///< lumped delay of every cell

struct TimingOptions {
  double wire_delay_per_unit = 0.01;
  /// Clock period; 0 = auto (1.05 × the max arrival of the initial run).
  double period = 0.0;
};

struct TimingReport {
  Vec arrival;   ///< per cell, at the cell output
  Vec required;  ///< per cell
  Vec slack;     ///< required − arrival
  double worst_slack = 0.0;
  double period = 0.0;
  CellId worst_endpoint = 0;
  size_t violations = 0;  ///< cells with negative slack
};

class TimingGraph {
 public:
  /// `is_register[c]` marks sequential cells; they start and end paths.
  TimingGraph(const Netlist& nl, std::vector<char> is_register,
              const TimingOptions& opts);

  /// Full arrival/required/slack propagation at placement `p`.
  TimingReport analyze(const Placement& p) const;

  /// Most critical path (cell ids from path start to endpoint), extracted
  /// from a report by walking max-arrival predecessors.
  std::vector<CellId> critical_path(const Placement& p,
                                    const TimingReport& report) const;

  /// Nets on the critical path through these cells (for net weighting).
  std::vector<NetId> path_nets(const std::vector<CellId>& path) const;

  const std::vector<char>& registers() const { return is_register_; }

 private:
  double edge_delay(const Placement& p, PinId driver, PinId sink) const;

  const Netlist& nl_;
  std::vector<char> is_register_;
  TimingOptions opts_;
  std::vector<CellId> topo_order_;  ///< cells in topological order
  bool had_cycles_ = false;
};

/// Deterministically marks ~`fraction` of movable standard cells as
/// registers (plus all pads, which behave as timing boundaries).
std::vector<char> choose_registers(const Netlist& nl, double fraction,
                                   uint64_t seed);

}  // namespace complx
