// Size-dispatched placement: flat ComPLx below a movable-cell threshold,
// the multilevel V-cycle above it.
//
// Flat ComPLx converges in a near-constant number of iterations (Section
// S3), but each iteration's cost is linear in design size, and on
// multi-million-cell instances the from-scratch λ ramp dominates runtime.
// The multilevel scheme pays that ramp on a netlist 10–100× smaller and
// only polishes the fine levels, so above a threshold it is the sensible
// default rather than an opt-in. place_auto() encodes that policy in one
// place; complx_place routes through it.
#pragma once

#include "core/placer.h"
#include "multilevel/mlplacer.h"

namespace complx {

struct AutoPlaceOptions {
  /// Movable-cell count at which the multilevel path takes over. 0 forces
  /// multilevel for every design; SIZE_MAX (or anything above the design
  /// size) forces flat.
  size_t multilevel_threshold = 1000000;
  /// V-cycle shape for the multilevel path; its `coarse` config is
  /// overwritten with the flat config so both paths share one tuning knob.
  MultilevelConfig multilevel;
};

/// Places `nl` with flat ComPLx when nl.num_movable() < multilevel_threshold
/// (`levels` empty) and with the coarsening V-cycle otherwise. Either way
/// `.place` is the full PlaceResult contract (see MultilevelResult).
MultilevelResult place_auto(const Netlist& nl, const ComplxConfig& cfg,
                            const AutoPlaceOptions& opts = {});

}  // namespace complx
