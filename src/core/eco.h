// Incremental (ECO) re-placement: re-solve only the cells inside a dirty
// window, holding everything else bit-exact.
//
// Physical-synthesis flows perturb a tiny fraction of a signed-off
// placement (buffer insertion, gate resizing, a re-synthesized island) and
// cannot afford — or tolerate — a full re-place: even a perfectly stable
// placer moves every cell a little, and every moved cell re-opens timing.
// eco_replace() freezes all movable cells OUTSIDE the window at their
// current positions (temporarily marking them Fixed), warm-starts the
// ComPLx loop from the stored placement, and commits new coordinates ONLY
// for the dirty cells. Frozen cells are never written at all: re-deriving
// a lower-left corner from a center (x + w/2 − w/2) is not an identity in
// floating point, so the only way to guarantee outside cells are bitwise
// untouched is to not touch them.
//
// When the window covers every movable cell the code path IS a full solve
// (plain ComplxPlacer::place()) — not an approximation of one — so
// eco(everything) equals place() bitwise by construction; a regression
// test pins this. A partial window costs what the window costs in the
// primal step: the solver's VarMap lists the nets with a pin on a dirty
// cell (VarMap::live_nets), and only those are decomposed into springs —
// a net whose pins are all frozen adds nothing to the system.
#pragma once

#include "core/placer.h"
#include "util/geom.h"

namespace complx {

struct EcoOptions {
  /// Dirty window in core coordinates. A movable cell is dirty iff its
  /// CENTER lies inside (boundary-inclusive, Rect::contains semantics).
  Rect window;

  /// Placer configuration for the re-solve. Partial windows always start
  /// warm, from the incoming placement (ComplxPlacer::place_from): an ECO
  /// that collapses the dirty cells to the core center would throw away the
  /// very stability ECO exists for.
  ComplxConfig config;

  /// Commit the re-solved anchor positions of the dirty cells back into
  /// the netlist. When false the result carries the positions but the
  /// netlist is left exactly as it was.
  bool apply = true;
};

struct EcoResult {
  /// Underlying solver result. With no dirty cells nothing is solved: 0
  /// iterations, and both placements are the netlist's unchanged one.
  PlaceResult place;
  size_t dirty_cells = 0;   ///< movable cells inside the window
  size_t frozen_cells = 0;  ///< movable cells temporarily fixed; 0 with
                            ///< dirty cells means a plain place() ran
};

/// Re-places the movable cells inside opts.window. The netlist is
/// temporarily re-finalized with outside movables frozen and restored
/// before returning (strong exception guarantee on the kind flips). Cells
/// outside the window are bitwise untouched — positions, kinds and pin
/// offsets compare equal byte for byte.
EcoResult eco_replace(Netlist& nl, const EcoOptions& opts);

}  // namespace complx
