// Abacus legalization (Spindler, Schlichtmann, Johannes, ISPD 2008):
// minimal-movement standard-cell legalization by per-row cluster collapse.
//
// Cells are processed in x order; each is trially appended to candidate row
// segments, where clusters of abutting cells are positioned at the weighted
// mean of their members' desired locations (the closed-form minimizer of
// Σ w_i (x_i − x_i^des)² under abutment), collapsing with predecessors on
// overlap. The row with the cheapest resulting displacement wins.
//
// This is the displacement-optimal counterpart to the greedy Tetris
// legalizer (legal/tetris.h); bench_ablation_legalizer compares them.
// Movable macros are placed by the macro phase the two share
// (place_macros, legal/tetris.h) and act as blockages here.
#pragma once

#include "legal/tetris.h"
#include "netlist/netlist.h"

namespace complx {

class AbacusLegalizer {
 public:
  explicit AbacusLegalizer(const Netlist& nl);

  /// Rewrites `p` with legal, site-aligned positions (fixed cells
  /// untouched). Returns the same statistics as the Tetris legalizer.
  LegalizeResult legalize(Placement& p) const;

 private:
  const Netlist& nl_;
};

}  // namespace complx
