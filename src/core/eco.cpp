#include "core/eco.h"

#include <utility>
#include <vector>

namespace complx {

namespace {

/// Restores the saved cell kinds on scope exit (also on exceptions thrown
/// mid-solve), then re-finalizes so the movable bookkeeping matches again.
class FreezeGuard {
 public:
  FreezeGuard(Netlist& nl, std::vector<std::pair<CellId, CellKind>> saved)
      : nl_(nl), saved_(std::move(saved)) {}
  ~FreezeGuard() {
    for (const auto& [id, kind] : saved_) nl_.cell(id).kind = kind;
    if (!saved_.empty()) nl_.refinalize();
  }
  FreezeGuard(const FreezeGuard&) = delete;
  FreezeGuard& operator=(const FreezeGuard&) = delete;

 private:
  Netlist& nl_;
  std::vector<std::pair<CellId, CellKind>> saved_;
};

}  // namespace

EcoResult eco_replace(Netlist& nl, const EcoOptions& opts) {
  EcoResult result;
  const Placement current = nl.snapshot();

  std::vector<CellId> dirty;
  std::vector<CellId> outside;
  for (CellId id : nl.movable_cells()) {
    if (opts.window.contains(Point{current.x[id], current.y[id]}))
      dirty.push_back(id);
    else
      outside.push_back(id);
  }
  result.dirty_cells = dirty.size();
  result.frozen_cells = outside.size();

  if (dirty.empty()) {  // nothing to re-solve, nothing touched
    result.place.lower_bound = result.place.anchors = current;
    return result;
  }

  if (outside.empty()) {
    // The window covers every movable cell: this IS a full solve. Run the
    // ordinary path so the result is bitwise identical to place() — no
    // freezing, no warm-start override, no special-cased commit.
    ComplxPlacer placer(nl, opts.config);
    result.place = placer.place();
    if (opts.apply) nl.apply(result.place.anchors);
    return result;
  }

  // Partial window: freeze the outside movables in place, re-solve the
  // dirty set warm-started from the stored placement, restore.
  std::vector<std::pair<CellId, CellKind>> saved;
  saved.reserve(outside.size());
  for (CellId id : outside) {
    saved.emplace_back(id, nl.cell(id).kind);
    nl.cell(id).kind = CellKind::Fixed;
  }
  nl.refinalize();
  FreezeGuard guard(nl, std::move(saved));

  ComplxPlacer placer(nl, opts.config);
  result.place = placer.place_from(current);

  if (opts.apply) {
    // Commit ONLY the dirty cells, writing lower-left corners exactly the
    // way Netlist::apply does. Outside cells are never written: the
    // center→corner round trip is not an FP identity, and the frozen cells
    // must stay bitwise identical to their pre-ECO bytes.
    for (CellId id : dirty) {
      Cell& c = nl.cell(id);
      c.x = result.place.anchors.x[id] - c.width / 2.0;
      c.y = result.place.anchors.y[id] - c.height / 2.0;
    }
  }
  return result;
}

}  // namespace complx
