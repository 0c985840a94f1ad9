// Row-based legalization (Tetris/greedy): snaps the global-placement result
// to non-overlapping, site- and row-aligned positions with small
// displacement. Movable macros are placed first (largest area first, spiral
// search for a conflict-free spot) and become blockages for the standard
// cells, which are then packed greedily in x-order into per-row free gaps.
//
// The paper's flow hands P_C's anchors to FastPlace-DP, which legalizes and
// refines; this module is the legalization half of that substrate.
#pragma once

#include <vector>

#include "netlist/netlist.h"

namespace complx {

/// Rows both row legalizers (this one and legal/abacus.h) search above and
/// below a standard cell's target row before widening the search (doubling
/// until every row is covered).
inline constexpr int kRowSearchRadius = 8;

struct LegalizeResult {
  size_t placed = 0;
  size_t failed = 0;  ///< cells that found no gap (should be 0 if area fits)
  double total_displacement = 0.0;
  double max_displacement = 0.0;
};

/// What the macro phase leaves for the standard-cell phase.
struct MacroPhase {
  std::vector<Rect> blockages;    ///< fixed cells, then the placed macros
  std::vector<CellId> std_cells;  ///< movable standard cells, netlist order
};

/// The macro phase both row legalizers share: movable macros, largest area
/// first (ties by id), each take the first conflict-free row- and
/// site-aligned spot of an expanding square lattice (step one row height)
/// around their target. Writes their centers into `p` and counts them, and
/// their displacement, into `result`. `nl` must have rows.
MacroPhase place_macros(const Netlist& nl, Placement& p,
                        LegalizeResult& result);

class TetrisLegalizer {
 public:
  explicit TetrisLegalizer(const Netlist& nl);

  /// Rewrites `p` with legal center positions. Fixed cells untouched.
  LegalizeResult legalize(Placement& p) const;

  /// Verification helper: true when no two placed rectangles overlap and
  /// all movable cells are row/site aligned inside the core.
  static bool is_legal(const Netlist& nl, const Placement& p,
                       double tol = 1e-6);

 private:
  const Netlist& nl_;
};

}  // namespace complx
