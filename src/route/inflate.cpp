#include "route/inflate.h"

#include <algorithm>
#include <cmath>

namespace complx {

Vec compute_inflation(const Netlist& nl, const Placement& p,
                      const CongestionMap& congestion,
                      const InflationOptions& opts) {
  constexpr double kExponent = 1.0;  // factor = (congestion / threshold)^k
  Vec factors(nl.num_cells(), 1.0);
  for (CellId id : nl.movable_cells()) {
    const Cell& c = nl.cell(id);
    if (c.is_macro()) continue;
    const double cong = congestion.congestion_at(p.x[id], p.y[id]);
    if (cong <= opts.threshold) continue;
    const double f = std::pow(cong / opts.threshold, kExponent);
    factors[id] = std::clamp(f, 1.0, kMaxInflation);
  }
  return factors;
}

}  // namespace complx
