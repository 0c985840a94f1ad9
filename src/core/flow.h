// The finish step every placement flow shares (the paper scores every
// global placer after the same post-processing, Tables 1-2 and S3):
// Tetris-legalize the global placement, refine it with FastPlace-style
// detailed placement, and score the result once (HPWL, scaled HPWL,
// legality).
//
// Global placement stays with the caller: flat, resumed, multilevel, ECO and
// the baseline placers each have their own entry point, and any of them can
// hand its placement to finish_placement().
#pragma once

// complx-lint: allow(P1): the type of the cooperative cancel flag, passed
// through to DetailedPlacer::refine.
#include <atomic>
#include <optional>

#include "density/metric.h"
#include "dp/detailed.h"
#include "legal/tetris.h"

namespace complx {

struct FinishOptions {
  bool detailed = true;  ///< run detailed placement after legalization
  /// Raised by complx_place's SIGINT handler: skips detailed placement when
  /// already set, cuts it short (leaving the placement legal) when raised
  /// during it.
  // complx-lint: allow(P1): control flow only, never the numeric path.
  const std::atomic<bool>* cancel = nullptr;
};

struct FinishResult {
  Placement placement;  ///< legalized (and refined) placement
  LegalizeResult legal;
  /// Set iff detailed placement ran: it is skipped when disabled, when the
  /// cancel flag was already raised, or when some cell failed to legalize.
  std::optional<DetailedResult> dp;
  DensityMetric metric;  ///< metric.hpwl is hpwl(nl, placement)
  bool is_legal = false;  ///< TetrisLegalizer::is_legal(nl, placement)
};

/// Legalizes `anchors` (Tetris), refines them (DetailedPlacer) unless a cell
/// failed to legalize, and scores the result.
FinishResult finish_placement(const Netlist& nl, Placement anchors,
                              const FinishOptions& opts = {});

}  // namespace complx
