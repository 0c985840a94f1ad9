// Assembly of the per-axis SPD linear systems for quadratic placement.
//
// Variables are the centers of movable cells; fixed cells and fixed star
// centers contribute to the right-hand side. Pin offsets enter the linear
// term exactly (paper, Section 5: "Mixed-size placement requires careful
// accounting for pin offsets during quadratic optimization").
//
// For a spring of weight w between pin positions (x_a + o_a) and
// (x_b + o_b), the normal equations contribute
//   A[a][a] += w, A[b][b] += w, A[a][b] -= w, A[b][a] -= w,
//   rhs[a]  += w (o_b − o_a),   rhs[b] += w (o_a − o_b),
// with the obvious reduction when one side is fixed.
#pragma once

#include <limits>
#include <vector>

#include "linalg/cg.h"
#include "linalg/sparse.h"
#include "netlist/netlist.h"
#include "wl/b2b.h"
#include "wl/star_clique.h"

namespace complx {

/// Mapping between cells and solver variables (movable cells only).
struct VarMap {
  static constexpr size_t kFixed = std::numeric_limits<size_t>::max();
  std::vector<size_t> var_of_cell;  ///< kFixed for fixed cells
  std::vector<CellId> cell_of_var;
  /// Nets with at least one pin on a movable cell, ascending. A net whose
  /// pins are all fixed adds nothing to the system, so the net models build
  /// only these (see net_list()). Kept only when some net has no movable
  /// pin — an ECO freeze; on designs where every net is live it stays empty.
  std::vector<NetId> live_nets;

  explicit VarMap(const Netlist& nl);
  size_t num_vars() const { return cell_of_var.size(); }
  /// The `nets` argument for build_b2b/build_clique/build_star: the live
  /// nets, or null (every net) when none was dropped. A design with no live
  /// net at all also gets null; its springs are all fixed–fixed and skipped.
  const std::vector<NetId>* net_list() const {
    return live_nets.empty() ? nullptr : &live_nets;
  }
};

/// Persistent numeric state of one axis solve: the CSR matrix with its
/// build scratch, the PCG scratch vectors, and the movable-coordinate
/// gather buffer. Owned by QpWorkspace and reused by both axes every
/// iteration; the matrix is rebuilt from the fresh stamps each call.
struct SolveWorkspace {
  CsrMatrix A;
  CsrBuildScratch csr;
  CgWorkspace cg;
  Vec x;  ///< warm-start / solution buffer (movable variables)
};

/// Builds A·x = rhs for one axis at a time. Springs reference pins; anchors
/// reference cells directly (pseudonets attach at the cell center). Only the
/// axis's own coordinate of the linearization point is read.
class SystemBuilder {
 public:
  SystemBuilder(const Netlist& nl, const VarMap& vars, Axis axis,
                const Placement& linearization_point);
  /// The builder keeps a pointer to the linearization point for the
  /// lifetime of the system being assembled — a temporary would dangle.
  SystemBuilder(const Netlist& nl, const VarMap& vars, Axis axis,
                Placement&& linearization_point) = delete;

  /// Rewinds to an empty system of `axis` at a new linearization point,
  /// keeping the capacity of the stamp and RHS buffers (allocation-free once
  /// warm), so one builder serves both axes in turn.
  void reset(Axis axis, const Placement& linearization_point);
  void reset(Axis axis, Placement&& linearization_point) = delete;

  void add_pin_springs(const std::vector<PinSpring>& springs);
  void add_star_springs(const std::vector<StarSpring>& springs);
  /// Pseudonet from movable cell `c` to fixed coordinate `target`.
  void add_anchor(CellId c, double target, double weight);

  /// assemble() builds the CSR matrix into the workspace; solve() then runs
  /// PCG out of the workspace buffers and scatters the solution back into
  /// the axis coordinates of `p` for movable cells. They are split so that
  /// callers can time assembly and solve separately.
  void assemble(SolveWorkspace& ws) const { build_csr(stamps_, ws.A, ws.csr); }
  CgResult solve(Placement& p, const CgOptions& opts, SolveWorkspace& ws) const;

  /// Exposed for tests: the assembled matrix and RHS.
  CsrMatrix build_matrix() const { return CsrMatrix::from_stamps(stamps_); }
  const Vec& rhs() const { return rhs_; }

 private:
  double pin_coord(PinId k) const;
  double pin_offset(PinId k) const;

  const Netlist& nl_;
  const VarMap& vars_;
  Axis axis_;
  // Raw pin arrays for the current axis (netlist view): spring stamping
  // resolves pins through two flat loads instead of materializing Pins.
  const CellId* pin_cell_;
  const double* pin_off_;
  const Placement* point_;  ///< current linearization point (rebindable)
  StampStore stamps_;
  Vec rhs_;
};

}  // namespace complx
