#include "dp/orientation.h"

#include <algorithm>

#include "util/fpcmp.h"
#include "wl/hpwl.h"

namespace complx {

OrientationResult optimize_orientation(Netlist& nl, const Placement& p) {
  OrientationResult result;
  result.initial_hpwl = hpwl(nl, p);

  std::vector<NetId> scratch;
  auto incident_cost = [&](CellId id) {
    double s = 0.0;
    for (NetId e : nl.nets_of_cell(id))
      s += nl.net(e).weight * net_hpwl(nl, p, e);
    return s;
  };

  constexpr int kMaxPasses = 3;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    size_t flips_this_pass = 0;
    for (CellId id : nl.movable_cells()) {
      const Cell& c = nl.cell(id);
      if (c.is_macro()) continue;
      // A flip only matters when the cell has pins with non-zero x offset.
      bool has_offset = false;
      for (PinId pid : nl.pins_of_cell(id))
        if (!fp::exactly_zero(nl.pin(pid).dx)) {
          has_offset = true;
          break;
        }
      if (!has_offset) continue;

      const double before = incident_cost(id);
      nl.flip_horizontal(id);
      const double after = incident_cost(id);
      if (after < before - 1e-12) {
        ++flips_this_pass;
      } else {
        nl.flip_horizontal(id);  // revert
      }
    }
    result.flipped += flips_this_pass;
    ++result.passes;
    if (flips_this_pass == 0) break;
  }
  result.final_hpwl = hpwl(nl, p);
  return result;
}

}  // namespace complx
