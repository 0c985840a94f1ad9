#include "core/flow.h"

#include <utility>

#include "util/parallel.h"

namespace complx {

FinishResult finish_placement(const Netlist& nl, Placement anchors,
                              const FinishOptions& opts) {
  FinishResult r;
  r.placement = std::move(anchors);
  r.legal = TetrisLegalizer(nl).legalize(r.placement);
  if (opts.detailed && r.legal.failed == 0 && !cancel_requested())
    r.dp = DetailedPlacer(nl).refine(r.placement);
  r.metric = evaluate_scaled_hpwl(nl, r.placement);
  r.is_legal = TetrisLegalizer::is_legal(nl, r.placement);
  return r;
}

}  // namespace complx
