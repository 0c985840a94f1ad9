#include "multilevel/auto.h"

namespace complx {

MultilevelResult place_auto(const Netlist& nl, const ComplxConfig& cfg,
                            const AutoPlaceOptions& opts) {
  if (nl.num_movable() < opts.multilevel_threshold)
    return {ComplxPlacer(nl, cfg).place(), {}, {}};
  MultilevelConfig ml = opts.multilevel;
  ml.coarse = cfg;  // one tuning knob for both paths
  return MultilevelPlacer(nl, ml).place();
}

}  // namespace complx
