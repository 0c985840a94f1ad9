#include "qp/solver.h"

#include <algorithm>
#include <memory>

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
                                     const QpOptions& opts, QpWorkspace* ws) {
  // Linearize at a frozen copy: both axes use the same linearization point
  // even though x is solved first. The workspace keeps the copy's buffers
  // alive across iterations (assignment reuses capacity).
  Placement local_point;
  (ws ? ws->point : local_point) = p;
  const Placement& point = ws ? ws->point : local_point;

  Timer assembly_timer;

  // Per-axis builders: stack-allocated on the workspace-free path, rebound
  // (capacity retained) on the workspace path.
  std::optional<SystemBuilder> local_x, local_y;
  if (ws) {
    if (ws->x.builder) {
      ws->x.builder->reset(point);
      ws->y.builder->reset(point);
    } else {
      ws->x.builder.emplace(nl, vars, Axis::X, point);
      ws->y.builder.emplace(nl, vars, Axis::Y, point);
    }
  } else {
    local_x.emplace(nl, vars, Axis::X, point);
    local_y.emplace(nl, vars, Axis::Y, point);
  }
  SystemBuilder& builder_x = ws ? *ws->x.builder : *local_x;
  SystemBuilder& builder_y = ws ? *ws->y.builder : *local_y;

  // The two axis systems are independent given the frozen linearization
  // point, so their assembly (net model + anchor pseudonets into the stamp
  // stores) runs concurrently. The CG solves stay sequential on the caller
  // so each solve gets the full pool for its SpMV/reduction parallelism —
  // this is also where the CSR build parallelizes over rows.
  auto assemble = [&](SystemBuilder& builder, QpWorkspace::AxisState* st,
                      Axis axis) {
    switch (opts.model) {
      case NetModel::B2B:
        if (st) {
          build_b2b(nl, point, axis, opts.b2b, st->springs);
          builder.add_pin_springs(st->springs);
        } else {
          builder.add_pin_springs(build_b2b(nl, point, axis, opts.b2b));
        }
        break;
      case NetModel::Clique:
        if (st) {
          build_clique(nl, point, axis, opts.b2b, st->springs);
          builder.add_pin_springs(st->springs);
        } else {
          builder.add_pin_springs(build_clique(nl, point, axis, opts.b2b));
        }
        break;
      case NetModel::Star:
        if (st) {
          build_star(nl, point, axis, opts.b2b, st->stars);
          builder.add_star_springs(st->stars);
        } else {
          builder.add_star_springs(build_star(nl, point, axis, opts.b2b));
        }
        break;
    }
    if (anchors) {
      const Vec& tgt = axis == Axis::X ? anchors->target_x : anchors->target_y;
      const Vec& wgt = axis == Axis::X ? anchors->weight_x : anchors->weight_y;
      for (CellId id : nl.movable_cells())
        builder.add_anchor(id, tgt[id], wgt[id]);
    }
  };
  QpWorkspace::AxisState* st_x = ws ? &ws->x : nullptr;
  QpWorkspace::AxisState* st_y = ws ? &ws->y : nullptr;
  parallel_invoke([&] { assemble(builder_x, st_x, Axis::X); },
                  [&] { assemble(builder_y, st_y, Axis::Y); });
  if (ws) ws->stats.assembly_s += assembly_timer.seconds();

  QpIterationResult result;
  for (Axis axis : {Axis::X, Axis::Y}) {
    SystemBuilder& builder = axis == Axis::X ? builder_x : builder_y;
    CgResult cg;
    if (ws) {
      QpWorkspace::AxisState& st = axis == Axis::X ? ws->x : ws->y;
      Timer csr_timer;
      builder.assemble(st.solve);
      ws->stats.assembly_s += csr_timer.seconds();
      Timer solve_timer;
      cg = builder.solve(p, opts.cg, st.solve);
      ws->stats.solve_s += solve_timer.seconds();
    } else {
      cg = builder.solve(p, opts.cg);
    }
    if (opts.clamp_to_core)
      clamp_axis(nl, axis == Axis::X ? p.x : p.y, axis);
    (axis == Axis::X ? result.cg_x : result.cg_y) = cg;
  }
  if (ws) ++ws->stats.iterations;
  return result;
}

}  // namespace complx
