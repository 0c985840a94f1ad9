// Congestion-driven cell inflation — SimPLR's mechanism for routability:
// "SimPLR preprocesses P_C by temporarily increasing the dimensions of some
// movable objects, so as to enhance geometric separation between them"
// (paper, Section 5). Cells sitting in congested bins get an area inflation
// factor; the feasibility projection then spreads them as if they were
// bigger, creating routing whitespace.
#pragma once

#include "netlist/netlist.h"
#include "route/rudy.h"

namespace complx {

inline constexpr double kMaxInflation = 2.0;  ///< area factor cap per cell

struct InflationOptions {
  double threshold = 1.0;  ///< congestion below this → no inflation
};

/// Per-cell AREA inflation factors (>= 1) for placement `p` under the given
/// congestion map. Macros are never inflated (their spreading is handled by
/// shredding); fixed cells get factor 1.
Vec compute_inflation(const Netlist& nl, const Placement& p,
                      const CongestionMap& congestion,
                      const InflationOptions& opts = {});

}  // namespace complx
