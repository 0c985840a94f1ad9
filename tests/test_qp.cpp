#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "helpers.h"
#include "qp/solver.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

uint64_t dbits(double v) { return std::bit_cast<uint64_t>(v); }

void expect_bitwise_equal(const Netlist& nl, const Placement& a,
                          const Placement& b) {
  for (CellId id : nl.movable_cells()) {
    ASSERT_EQ(dbits(a.x[id]), dbits(b.x[id])) << "x of cell " << id;
    ASSERT_EQ(dbits(a.y[id]), dbits(b.y[id])) << "y of cell " << id;
  }
}

/// Assembles and solves `builder`'s system on a throwaway workspace.
CgResult solve_system(const SystemBuilder& builder, Placement& p,
                      const CgOptions& opts) {
  SolveWorkspace ws;
  builder.assemble(ws);
  return builder.solve(p, opts, ws);
}

TEST(VarMap, MapsOnlyMovables) {
  Netlist nl = complx::testing::two_cell_chain();
  const VarMap vars(nl);
  EXPECT_EQ(vars.num_vars(), 2u);
  const CellId pad0 = nl.find_cell("pad0");
  const CellId c0 = nl.find_cell("c0");
  EXPECT_EQ(vars.var_of_cell[pad0], VarMap::kFixed);
  EXPECT_NE(vars.var_of_cell[c0], VarMap::kFixed);
  EXPECT_EQ(vars.cell_of_var[vars.var_of_cell[c0]], c0);
}

TEST(SystemBuilder, ChainOptimumIsEvenSpacing) {
  // pad0(0) -- c0 -- c1 -- pad1(30): quadratic optimum c0=10, c1=20.
  Netlist nl = complx::testing::two_cell_chain();
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  const CellId c0 = nl.find_cell("c0"), c1 = nl.find_cell("c1");
  p.x[c0] = 14.0;
  p.x[c1] = 16.0;

  SystemBuilder builder(nl, vars, Axis::X, p);
  // Unit springs (no B2B linearization, pure quadratic chain).
  std::vector<PinSpring> springs{{0, 1, 1.0}, {2, 3, 1.0}, {4, 5, 1.0}};
  builder.add_pin_springs(springs);
  const CgResult res = solve_system(builder, p, {.rel_tolerance = 1e-12});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(p.x[c0], 10.0, 1e-8);
  EXPECT_NEAR(p.x[c1], 20.0, 1e-8);
}

TEST(SystemBuilder, PinOffsetsShiftTheOptimum) {
  // One movable cell tied to a fixed pad at x=10 through a pin with offset
  // +2: optimum has pin at pad, so center = 8.
  Netlist nl;
  Cell pad;
  pad.width = pad.height = 0;
  pad.x = 10;
  pad.y = 0;
  pad.kind = CellKind::Fixed;
  const CellId ip = nl.add_cell(pad, "pad");
  Cell c;
  c.width = 2;
  c.height = 2;
  const CellId ic = nl.add_cell(c, "c");
  nl.add_net("n", 1.0, {{ic, 2.0, 0.0}, {ip, 0.0, 0.0}});
  nl.set_core({0, 0, 20, 20});
  nl.finalize();

  const VarMap vars(nl);
  Placement p = nl.snapshot();
  SystemBuilder builder(nl, vars, Axis::X, p);
  builder.add_pin_springs({{0, 1, 1.0}});
  solve_system(builder, p, {.rel_tolerance = 1e-12});
  EXPECT_NEAR(p.x[ic], 8.0, 1e-8);
}

TEST(SystemBuilder, AnchorPullsTowardTarget) {
  Netlist nl = complx::testing::two_cell_chain();
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  const CellId c0 = nl.find_cell("c0");

  SystemBuilder builder(nl, vars, Axis::X, p);
  builder.add_pin_springs({{0, 1, 1.0}, {2, 3, 1.0}, {4, 5, 1.0}});
  builder.add_anchor(c0, 5.0, 100.0);  // heavy anchor at x=5
  solve_system(builder, p, {.rel_tolerance = 1e-12});
  EXPECT_NEAR(p.x[c0], 5.0, 0.2);
}

TEST(SystemBuilder, AnchorOnFixedCellIgnored) {
  Netlist nl = complx::testing::two_cell_chain();
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  SystemBuilder builder(nl, vars, Axis::X, p);
  builder.add_anchor(nl.find_cell("pad0"), 99.0, 100.0);
  EXPECT_DOUBLE_EQ(builder.rhs()[0], 0.0);
  EXPECT_DOUBLE_EQ(builder.rhs()[1], 0.0);
}

TEST(SystemBuilder, MatrixIsSymmetricPositive) {
  Netlist nl = complx::testing::small_circuit(51, 300);
  const VarMap vars(nl);
  const Placement p = nl.snapshot();
  SystemBuilder builder(nl, vars, Axis::X, p);
  std::vector<PinSpring> springs;
  build_b2b(nl, p, Axis::X, {}, springs);
  builder.add_pin_springs(springs);
  const CsrMatrix A = builder.build_matrix();
  EXPECT_LT(A.symmetry_error(), 1e-12);
  const Vec d = A.diagonal();
  for (double v : d) EXPECT_GE(v, 0.0);
}

TEST(SolveQpIteration, ReducesHpwlFromScatter) {
  Netlist nl = complx::testing::small_circuit(52, 800);
  const VarMap vars(nl);
  Placement p = nl.snapshot();  // generator scatter
  const double before = hpwl(nl, p);
  QpOptions opts;
  opts.b2b.min_separation = 1.5 * nl.row_height();
  QpWorkspace ws;
  for (int i = 0; i < 3; ++i)
    solve_qp_iteration(nl, vars, p, nullptr, opts, ws);
  const double after = hpwl(nl, p);
  EXPECT_LT(after, 0.6 * before);  // QP collapses scattered placement
}

TEST(SolveQpIteration, ClampsToCore) {
  Netlist nl = complx::testing::small_circuit(53, 300);
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  QpOptions opts;
  QpWorkspace ws;
  solve_qp_iteration(nl, vars, p, nullptr, opts, ws);
  for (CellId id : nl.movable_cells()) {
    const Cell& c = nl.cell(id);
    EXPECT_GE(p.x[id] - c.width / 2.0, nl.core().xl - 1e-9);
    EXPECT_LE(p.x[id] + c.width / 2.0, nl.core().xh + 1e-9);
    EXPECT_GE(p.y[id] - c.height / 2.0, nl.core().yl - 1e-9);
    EXPECT_LE(p.y[id] + c.height / 2.0, nl.core().yh + 1e-9);
  }
}

class NetModelSweep : public ::testing::TestWithParam<NetModel> {};

TEST_P(NetModelSweep, AllModelsReduceHpwl) {
  Netlist nl = complx::testing::small_circuit(54, 600);
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  const double before = hpwl(nl, p);
  QpOptions opts;
  opts.model = GetParam();
  opts.b2b.min_separation = 1.5 * nl.row_height();
  QpWorkspace ws;
  for (int i = 0; i < 3; ++i)
    solve_qp_iteration(nl, vars, p, nullptr, opts, ws);
  EXPECT_LT(hpwl(nl, p), before);
}

INSTANTIATE_TEST_SUITE_P(Models, NetModelSweep,
                         ::testing::Values(NetModel::B2B, NetModel::Clique,
                                           NetModel::Star));

TEST(SolveQpIteration, AnchorsHoldPlacementInPlace) {
  // With huge anchor weights at the current positions, the solve must not
  // move anything appreciably.
  Netlist nl = complx::testing::small_circuit(55, 400);
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  AnchorSet anchors(nl.num_cells());
  for (CellId id : nl.movable_cells()) {
    anchors.target_x[id] = p.x[id];
    anchors.target_y[id] = p.y[id];
    anchors.weight_x[id] = 1e6;
    anchors.weight_y[id] = 1e6;
  }
  const Placement before = p;
  QpOptions opts;
  QpWorkspace ws;
  solve_qp_iteration(nl, vars, p, &anchors, opts, ws);
  double max_move = 0.0;
  for (CellId id : nl.movable_cells())
    max_move = std::max(max_move, std::abs(p.x[id] - before.x[id]) +
                                      std::abs(p.y[id] - before.y[id]));
  EXPECT_LT(max_move, 0.5);
}

// ------------------------------------------------------------ workspace ----

TEST(QpWorkspace, MultiIterationTrajectoryMatchesFreshBitwise) {
  // Let the iterate evolve naturally for several iterations (the B2B
  // topology changes as cells move): a reused workspace must track a fresh
  // workspace per iteration bit for bit the whole way.
  Netlist nl = complx::testing::small_circuit(60, 500);
  const VarMap vars(nl);
  QpOptions opts;
  opts.b2b.min_separation = 1.5 * nl.row_height();
  QpWorkspace ws;
  Placement cached = nl.snapshot();
  Placement fresh = cached;
  for (int i = 0; i < 5; ++i) {
    QpWorkspace fresh_ws;
    solve_qp_iteration(nl, vars, cached, nullptr, opts, ws);
    solve_qp_iteration(nl, vars, fresh, nullptr, opts, fresh_ws);
    expect_bitwise_equal(nl, cached, fresh);
  }
  EXPECT_EQ(ws.stats.iterations, 5u);
}

}  // namespace
}  // namespace complx
