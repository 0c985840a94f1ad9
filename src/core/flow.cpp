#include "core/flow.h"

#include <utility>

namespace complx {

FinishResult finish_placement(const Netlist& nl, Placement anchors,
                              const FinishOptions& opts) {
  FinishResult r;
  r.placement = std::move(anchors);
  r.legal = TetrisLegalizer(nl).legalize(r.placement);
  const bool cancelled =
      // complx-lint: allow(P1): relaxed poll of the cancel flag; control flow.
      opts.cancel && opts.cancel->load(std::memory_order_relaxed);
  if (opts.detailed && r.legal.failed == 0 && !cancelled)
    r.dp = DetailedPlacer(nl).refine(r.placement, opts.cancel);
  r.metric = evaluate_scaled_hpwl(nl, r.placement);
  r.is_legal = TetrisLegalizer::is_legal(nl, r.placement);
  return r;
}

}  // namespace complx
