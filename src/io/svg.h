// SVG placement visualization: core outline, fixed blockages, standard
// cells, movable macros and region boxes — the pictures Figures 2 and 4 of
// the paper show. Written by benches/apps so results can be inspected
// without a plotting stack.
#pragma once

#include <string>

#include "netlist/netlist.h"

namespace complx {

struct SvgOptions {
  /// Optional per-cell highlight flags (e.g. a critical path or a region
  /// group); highlighted cells draw in accent color. Empty = none.
  std::vector<char> highlight;
};

/// Renders placement `p` of `nl` to an SVG file. Throws on I/O failure.
void write_placement_svg(const Netlist& nl, const Placement& p,
                         const std::string& path,
                         const SvgOptions& opts = {});

}  // namespace complx
