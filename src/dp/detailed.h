// Detailed placement in the style of FastPlace-DP (Pan, Viswanathan, Chu,
// ICCAD 2005) — the post-pass the paper applies to every placer's output
// ("Detailed placement was done by FastPlace-DP"). Operates on a LEGAL
// placement and preserves legality.
//
// Move classes:
//  * global swap   — move a cell toward its optimal region (the median of
//                    its incident nets' bounding-box intervals computed
//                    without the cell), into a free gap or by swapping with
//                    a compatible cell;
//  * vertical swap — the same mechanism naturally captures row changes;
//  * local reorder — exhaustive permutation of small windows of consecutive
//                    cells within a row;
//  * row shift     — per-segment 1-D optimal repositioning (L1 clumping):
//                    cells keep their order, each seeks the median of its
//                    net intervals, clusters merge when they collide.
#pragma once

// complx-lint: allow(P1): the type of the async-signal-safe cancel flag.
#include <atomic>
#include <vector>

#include "netlist/netlist.h"

namespace complx {

struct DetailedOptions {
  int max_passes = 4;
  bool global_swap = true;
  bool local_reorder = true;
  bool row_shift = true;
};

struct DetailedResult {
  double initial_hpwl = 0.0;
  double final_hpwl = 0.0;
  int passes = 0;          ///< completed passes
  bool cancelled = false;  ///< the cancel flag cut a pass short
};

class DetailedPlacer {
 public:
  explicit DetailedPlacer(const Netlist& nl, DetailedOptions opts = {});

  /// Refines a legal placement in place. Behaviour on an illegal input is
  /// best-effort (moves that would create overlap are rejected), but callers
  /// should legalize first. A raised `cancel` flag (complx_place's SIGINT
  /// flag) stops it at its next check between moves, so `p` stays legal.
  DetailedResult refine(Placement& p,
                        // complx-lint: allow(P1): control flow only.
                        const std::atomic<bool>* cancel = nullptr) const;

 private:
  const Netlist& nl_;
  DetailedOptions opts_;
};

}  // namespace complx
