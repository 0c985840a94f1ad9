// Synthetic circuit generator — the repo's substitute for the proprietary
// ISPD 2005/2006 contest dumps (see DESIGN.md §5).
//
// Generated designs reproduce the statistical features that drive placer
// behaviour:
//  * net-degree histogram dominated by 2-3 pin nets with a heavy tail,
//  * locality: cells are assigned to a virtual cluster grid and nets draw
//    most pins from one cluster and its neighbours (Rent's-rule-like),
//  * perimeter I/O pads (fixed terminals) wired to long nets,
//  * optional fixed macros (blockages) and movable macros (ISPD 2006),
//  * row structure and a whitespace/target-density budget.
//
// Because nets are cluster-local, a good placer can realize HPWL far below
// a random placement — exactly the signal the benchmarks need.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/netlist.h"

namespace complx {

struct GenParams {
  std::string name = "synth";
  uint64_t seed = 1;

  size_t num_cells = 10000;  ///< movable standard cells

  size_t num_pads = 64;  ///< fixed perimeter terminals

  size_t num_fixed_macros = 0;    ///< in-core blockages
  size_t num_movable_macros = 0;  ///< ISPD 2006-style movable blocks

  /// Core utilization: (movable + fixed-in-core area) / core area.
  double utilization = 0.70;
  /// Density target γ written into the netlist (1.0 = unconstrained).
  double target_density = 1.0;
};

/// Generates a finalized netlist. Cells start at deterministic scattered
/// positions inside the core (placers typically re-initialize anyway).
Netlist generate_circuit(const GenParams& params);

}  // namespace complx
