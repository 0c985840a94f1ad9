#include "qp/solver.h"

#include <algorithm>

#include "util/timer.h"

namespace complx {

namespace {
void clamp_axis(const Netlist& nl, Vec& coords, Axis axis) {
  const Rect& core = nl.core();
  for (CellId id : nl.movable_cells()) {
    const Cell& c = nl.cell(id);
    if (axis == Axis::X) {
      const double half = c.width / 2.0;
      coords[id] = std::clamp(coords[id], core.xl + half,
                              std::max(core.xl + half, core.xh - half));
    } else {
      const double half = c.height / 2.0;
      coords[id] = std::clamp(coords[id], core.yl + half,
                              std::max(core.yl + half, core.yh - half));
    }
  }
}
}  // namespace

QpIterationResult solve_qp_iteration(const Netlist& nl, const VarMap& vars,
                                     Placement& p, const AnchorSet* anchors,
                                     const QpOptions& opts, QpWorkspace& ws) {
  // Only nets with a movable pin are decomposed (VarMap::live_nets): on an
  // ECO freeze most nets are all-fixed and would emit nothing but springs
  // add_pin_springs skips.
  const std::vector<NetId>* nets = vars.net_list();

  // One axis at a time through the one buffer set. Each axis reads and
  // writes only its own coordinate of `p`, so y still linearizes at the
  // entry point after x is solved.
  QpIterationResult result;
  for (Axis axis : {Axis::X, Axis::Y}) {
    Timer assembly_timer;
    if (ws.builder)
      ws.builder->reset(axis, p);
    else
      ws.builder.emplace(nl, vars, axis, p);
    SystemBuilder& builder = *ws.builder;
    switch (opts.model) {
      case NetModel::B2B:
        build_b2b(nl, p, axis, opts.b2b, ws.springs, nets);
        builder.add_pin_springs(ws.springs);
        break;
      case NetModel::Clique:
        build_clique(nl, p, axis, opts.b2b, ws.springs, nets);
        builder.add_pin_springs(ws.springs);
        break;
      case NetModel::Star:
        build_star(nl, p, axis, opts.b2b, ws.stars, nets);
        builder.add_star_springs(ws.stars);
        break;
    }
    if (anchors) {
      const Vec& tgt = axis == Axis::X ? anchors->target_x : anchors->target_y;
      const Vec& wgt = axis == Axis::X ? anchors->weight_x : anchors->weight_y;
      for (CellId id : nl.movable_cells())
        builder.add_anchor(id, tgt[id], wgt[id]);
    }
    builder.assemble(ws.solve);
    ws.stats.assembly_s += assembly_timer.seconds();

    Timer solve_timer;
    const CgResult cg = builder.solve(p, opts.cg, ws.solve);
    ws.stats.solve_s += solve_timer.seconds();
    // Cells cannot leave the placement region.
    clamp_axis(nl, axis == Axis::X ? p.x : p.y, axis);
    (axis == Axis::X ? result.cg_x : result.cg_y) = cg;
  }
  ++ws.stats.iterations;
  return result;
}

}  // namespace complx
