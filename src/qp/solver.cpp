#include "qp/solver.h"

#include <algorithm>

#include "util/parallel.h"
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
  // Linearize at a frozen copy: both axes use the same linearization point
  // even though x is solved first. Assignment reuses the copy's buffers.
  ws.point = p;
  const Placement& point = ws.point;

  Timer assembly_timer;
  if (ws.x.builder) {
    ws.x.builder->reset(point);
    ws.y.builder->reset(point);
  } else {
    ws.x.builder.emplace(nl, vars, Axis::X, point);
    ws.y.builder.emplace(nl, vars, Axis::Y, point);
  }

  // Only nets with a movable pin are decomposed (VarMap::live_nets): on an
  // ECO freeze most nets are all-fixed and would emit nothing but springs
  // add_pin_springs skips.
  const std::vector<NetId>* nets = vars.net_list();

  // The two axis systems are independent given the frozen linearization
  // point, so their assembly (net model + anchor pseudonets into the stamp
  // stores) runs concurrently. The CSR builds and CG solves stay sequential
  // on the caller so each solve gets the full pool for its SpMV/reduction
  // parallelism.
  auto assemble = [&](QpWorkspace::AxisState& st, Axis axis) {
    SystemBuilder& builder = *st.builder;
    switch (opts.model) {
      case NetModel::B2B:
        build_b2b(nl, point, axis, opts.b2b, st.springs, nets);
        builder.add_pin_springs(st.springs);
        break;
      case NetModel::Clique:
        build_clique(nl, point, axis, opts.b2b, st.springs, nets);
        builder.add_pin_springs(st.springs);
        break;
      case NetModel::Star:
        build_star(nl, point, axis, opts.b2b, st.stars, nets);
        builder.add_star_springs(st.stars);
        break;
    }
    if (anchors) {
      const Vec& tgt = axis == Axis::X ? anchors->target_x : anchors->target_y;
      const Vec& wgt = axis == Axis::X ? anchors->weight_x : anchors->weight_y;
      for (CellId id : nl.movable_cells())
        builder.add_anchor(id, tgt[id], wgt[id]);
    }
  };
  parallel_invoke([&] { assemble(ws.x, Axis::X); },
                  [&] { assemble(ws.y, Axis::Y); });
  ws.stats.assembly_s += assembly_timer.seconds();

  QpIterationResult result;
  for (Axis axis : {Axis::X, Axis::Y}) {
    QpWorkspace::AxisState& st = axis == Axis::X ? ws.x : ws.y;
    Timer csr_timer;
    st.builder->assemble(st.solve);
    ws.stats.assembly_s += csr_timer.seconds();
    Timer solve_timer;
    const CgResult cg = st.builder->solve(p, opts.cg, st.solve);
    ws.stats.solve_s += solve_timer.seconds();
    if (opts.clamp_to_core)
      clamp_axis(nl, axis == Axis::X ? p.x : p.y, axis);
    (axis == Axis::X ? result.cg_x : result.cg_y) = cg;
  }
  ++ws.stats.iterations;
  return result;
}

}  // namespace complx
