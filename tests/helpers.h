// Shared fixtures for the ComPLx test suite: tiny hand-built netlists with
// known optima, plus convenience wrappers around the generator.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ios>
#include <string>
#include <vector>

#include "gen/generator.h"
#include "netlist/netlist.h"
#include "qp/solver.h"
#include "util/parallel.h"

namespace complx::testing {

/// Raises the process-wide cancel flag (util/parallel.h) for its lifetime
/// and clears it on scope exit — also when a failed ASSERT returns early —
/// so a cancel test never leaks the flag into the tests after it.
class ScopedCancel {
 public:
  ScopedCancel() { set_cancel_requested(true); }
  ~ScopedCancel() { set_cancel_requested(false); }
  ScopedCancel(const ScopedCancel&) = delete;
  ScopedCancel& operator=(const ScopedCancel&) = delete;
};

/// Raw IEEE-754 bit pattern of a double, for byte-exactness assertions
/// where even -0.0 vs 0.0 must be told apart (frozen-cell ECO contract,
/// coarse-netlist reproducibility).
inline uint64_t bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Asserts two coordinate vectors are identical to the last bit. Doubles are
/// compared by value with == (not memcmp) so that, e.g., -0.0 == 0.0 — what
/// the determinism contract actually promises is identical *values* from
/// identical arithmetic; NaNs would fail, which is also what we want.
inline void expect_vec_bitwise_equal(const Vec& a, const Vec& b,
                                     const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what << ": size mismatch";
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      ADD_FAILURE() << what << ": first mismatch at index " << i << ": "
                    << std::hexfloat << a[i] << " vs " << b[i];
      return;
    }
  }
}

/// Bitwise comparison of two placements (both axes, all cells).
inline void expect_placements_bitwise_equal(const Placement& a,
                                            const Placement& b) {
  expect_vec_bitwise_equal(a.x, b.x, "x coordinates");
  expect_vec_bitwise_equal(a.y, b.y, "y coordinates");
}

/// Two movable cells between two fixed pads on a line:
///   pad0 (x=0) -- c0 -- c1 -- pad1 (x=30)
/// Quadratic optimum spaces them evenly. Core is [0,30] x [0,12].
inline Netlist two_cell_chain() {
  Netlist nl;
  Cell pad0;
  pad0.width = pad0.height = 0.0;
  pad0.x = 0.0;
  pad0.y = 6.0;
  pad0.kind = CellKind::Fixed;
  const CellId p0 = nl.add_cell(pad0, "pad0");

  Cell pad1 = pad0;
  pad1.x = 30.0;
  const CellId p1 = nl.add_cell(pad1, "pad1");

  Cell c;
  c.width = 2.0;
  c.height = 12.0;
  c.kind = CellKind::Movable;
  const CellId c0 = nl.add_cell(c, "c0");
  const CellId c1 = nl.add_cell(c, "c1");

  nl.add_net("e0", 1.0, {{p0, 0, 0}, {c0, 0, 0}});
  nl.add_net("e1", 1.0, {{c0, 0, 0}, {c1, 0, 0}});
  nl.add_net("e2", 1.0, {{c1, 0, 0}, {p1, 0, 0}});
  nl.set_core({0.0, 0.0, 30.0, 12.0});
  nl.finalize();
  return nl;
}

/// A k x k grid of unit cells plus 4 corner pads; nets connect grid
/// neighbours (mesh) so the optimal placement is the grid itself.
inline Netlist mesh_netlist(int k, double cell_w = 4.0, double row_h = 12.0,
                            double core_scale = 2.0) {
  Netlist nl;
  const double side = core_scale * k * std::max(cell_w, row_h);
  const double spacing = side / (k + 1);
  std::vector<CellId> ids;
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < k; ++i) {
      Cell c;
      c.width = cell_w;
      c.height = row_h;
      c.kind = CellKind::Movable;
      // Start on the ideal grid so mesh tests have meaningful geometry.
      c.x = (i + 1) * spacing - cell_w / 2.0;
      c.y = (j + 1) * spacing - row_h / 2.0;
      ids.push_back(nl.add_cell(c, "g" + std::to_string(i) + "_" + std::to_string(j)));
    }
  }
  // Corner pads.
  std::vector<CellId> pads;
  const double pos[4][2] = {{0, 0}, {side, 0}, {0, side}, {side, side}};
  for (int t = 0; t < 4; ++t) {
    Cell p;
    p.width = p.height = 0.0;
    p.x = pos[t][0];
    p.y = pos[t][1];
    p.kind = CellKind::Fixed;
    pads.push_back(nl.add_cell(p, "pad" + std::to_string(t)));
  }
  auto at = [&](int i, int j) { return ids[static_cast<size_t>(j * k + i)]; };
  int net_id = 0;
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < k; ++i) {
      if (i + 1 < k)
        nl.add_net("h" + std::to_string(net_id++), 1.0,
                   {{at(i, j), 0, 0}, {at(i + 1, j), 0, 0}});
      if (j + 1 < k)
        nl.add_net("v" + std::to_string(net_id++), 1.0,
                   {{at(i, j), 0, 0}, {at(i, j + 1), 0, 0}});
    }
  }
  // Tie the corners of the mesh to the pads.
  nl.add_net("p0", 1.0, {{pads[0], 0, 0}, {at(0, 0), 0, 0}});
  nl.add_net("p1", 1.0, {{pads[1], 0, 0}, {at(k - 1, 0), 0, 0}});
  nl.add_net("p2", 1.0, {{pads[2], 0, 0}, {at(0, k - 1), 0, 0}});
  nl.add_net("p3", 1.0, {{pads[3], 0, 0}, {at(k - 1, k - 1), 0, 0}});
  nl.set_core({0.0, 0.0, side, side});
  nl.finalize();
  return nl;
}

/// Small generated circuit for integration-style tests.
inline Netlist small_circuit(uint64_t seed = 7, size_t cells = 2000,
                             size_t movable_macros = 0,
                             double target_density = 1.0) {
  GenParams p;
  p.seed = seed;
  p.num_cells = cells;
  p.num_movable_macros = movable_macros;
  p.num_fixed_macros = movable_macros ? 2 : 0;
  p.utilization = 0.6;
  p.target_density = target_density;
  return generate_circuit(p);
}

/// Clamps the `axis` coordinate of every movable cell into the core.
inline void clamp_into_core(const Netlist& nl, Placement& p, Axis axis) {
  const Rect& core = nl.core();
  for (CellId id : nl.movable_cells()) {
    const Cell& c = nl.cell(id);
    if (axis == Axis::X) {
      const double half = c.width / 2.0;
      p.x[id] = std::clamp(p.x[id], core.xl + half,
                           std::max(core.xl + half, core.xh - half));
    } else {
      const double half = c.height / 2.0;
      p.y[id] = std::clamp(p.y[id], core.yl + half,
                           std::max(core.yl + half, core.yh - half));
    }
  }
}

/// Reference primal step with one buffer set per axis (solve_qp_iteration
/// shares one set between them): both systems are stamped and built at a
/// frozen copy of `p` before either is solved, then each axis is solved and
/// clamped in turn.
inline QpIterationResult frozen_point_reference(const Netlist& nl,
                                                const VarMap& vars,
                                                Placement& p,
                                                const AnchorSet* anchors,
                                                const QpOptions& opts) {
  const Placement point = p;
  SystemBuilder bx(nl, vars, Axis::X, point), by(nl, vars, Axis::Y, point);
  SolveWorkspace wx, wy;
  for (Axis axis : {Axis::X, Axis::Y}) {
    SystemBuilder& b = axis == Axis::X ? bx : by;
    std::vector<PinSpring> springs;
    std::vector<StarSpring> stars;
    switch (opts.model) {
      case NetModel::B2B:
        build_b2b(nl, point, axis, opts.b2b, springs, vars.net_list());
        b.add_pin_springs(springs);
        break;
      case NetModel::Clique:
        build_clique(nl, point, axis, opts.b2b, springs, vars.net_list());
        b.add_pin_springs(springs);
        break;
      case NetModel::Star:
        build_star(nl, point, axis, opts.b2b, stars, vars.net_list());
        b.add_star_springs(stars);
        break;
    }
    if (anchors) {
      const Vec& tgt = axis == Axis::X ? anchors->target_x : anchors->target_y;
      const Vec& wgt = axis == Axis::X ? anchors->weight_x : anchors->weight_y;
      for (CellId id : nl.movable_cells()) b.add_anchor(id, tgt[id], wgt[id]);
    }
  }
  bx.assemble(wx);
  by.assemble(wy);
  QpIterationResult r;
  r.cg_x = bx.solve(p, opts.cg, wx);
  clamp_into_core(nl, p, Axis::X);
  r.cg_y = by.solve(p, opts.cg, wy);
  clamp_into_core(nl, p, Axis::Y);
  return r;
}

}  // namespace complx::testing
