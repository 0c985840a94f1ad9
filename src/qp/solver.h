// One linearized quadratic-placement iteration: relinearize the chosen net
// model at the current iterate, add anchor pseudonets, solve the x and then
// the y system.
// This is the primal step of the ComPLx Lagrangian (Formula 10) when Φ is
// the linearized-quadratic model.
#pragma once

#include <optional>

#include "qp/system_builder.h"

namespace complx {

enum class NetModel { B2B, Clique, Star };

/// Per-cell anchor pseudonets representing the linearized λ·L1 penalty term.
/// Entries with weight 0 add nothing. Sized num_cells (fixed entries unused).
struct AnchorSet {
  Vec target_x, target_y;
  Vec weight_x, weight_y;

  explicit AnchorSet(size_t num_cells)
      : target_x(num_cells, 0.0),
        target_y(num_cells, 0.0),
        weight_x(num_cells, 0.0),
        weight_y(num_cells, 0.0) {}
};

struct QpOptions {
  NetModel model = NetModel::B2B;
  B2bOptions b2b;
  CgOptions cg;
};

struct QpIterationResult {
  CgResult cg_x, cg_y;

  bool breakdown() const { return cg_x.breakdown || cg_y.breakdown; }
  bool fully_converged() const { return cg_x.converged && cg_y.converged; }
};

/// Instrumentation of solve_qp_iteration, accumulated across iterations.
struct QpWorkspaceStats {
  size_t iterations = 0;    ///< solve_qp_iteration calls
  double assembly_s = 0.0;  ///< net model + stamping + CSR build
  double solve_s = 0.0;     ///< PCG wall time
};

/// Iteration-persistent state for solve_qp_iteration: one buffer set that
/// the x and then the y system pass through in turn.
///
/// Lifecycle: every caller owns one QpWorkspace for its whole run and
/// passes it to every primal step. First use allocates and binds the
/// builder; after that every buffer (spring list, stamp store, CSR matrix
/// and build scratch, PCG scratch) is reused and holds the larger axis.
/// Nothing numeric is cached: every axis restamps and rebuilds its system.
struct QpWorkspace {
  std::optional<SystemBuilder> builder;  ///< bound on first iteration
  SolveWorkspace solve;
  std::vector<PinSpring> springs;  ///< B2B / clique buffer
  std::vector<StarSpring> stars;   ///< star-model buffer
  QpWorkspaceStats stats;
};

/// Solves min Φ_Q(x, y) (+ anchor penalties) linearized at `p`, writing the
/// minimizer back into `p`. The axes run one after the other: the x solve
/// writes only p.x and the y system reads only p.y, so both linearize at
/// the entry point without a copy of it. All per-iteration buffers come
/// from `ws`, and `ws.stats` is updated. The workspace carries no numeric
/// state between calls: the result depends on the arguments only.
QpIterationResult solve_qp_iteration(const Netlist& nl, const VarMap& vars,
                                     Placement& p, const AnchorSet* anchors,
                                     const QpOptions& opts, QpWorkspace& ws);

}  // namespace complx
