// Writer for the Bookshelf format: emits .aux/.nodes/.nets/.wts/.pl/.scl
// for a Netlist. Round-tripping through the reader reproduces the design
// (verified by tests), which lets users export generated benchmarks and
// placements for external tools.
#pragma once

#include <string>

#include "netlist/netlist.h"

namespace complx {

/// Writes `<dir>/<name>.{aux,nodes,nets,wts,pl,scl}`. The .pl contains the
/// positions currently stored in the netlist. Throws on I/O failure.
void write_bookshelf(const Netlist& nl, const std::string& dir,
                     const std::string& name);

/// Writes only a .pl file (the contest deliverable) for the given placement.
/// Throws std::invalid_argument when `p` does not hold one entry per cell.
void write_pl(const Netlist& nl, const Placement& p, const std::string& path);

}  // namespace complx
