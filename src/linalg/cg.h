// Jacobi-preconditioned Conjugate Gradient for the SPD placement systems.
//
// ComPLx (like SimPL) deliberately uses *linear* CG on the linearized
// quadratic model instead of nonlinear solvers (paper, Section S4). The
// systems are Laplacian-plus-diagonal: symmetric positive definite whenever
// at least one fixed connection or anchor exists per connected component.
#pragma once

#include <cstddef>

#include "linalg/sparse.h"
#include "linalg/vec.h"

namespace complx {

struct CgOptions {
  double rel_tolerance = 1e-6;  ///< stop when ||r|| <= rel_tolerance * ||b||
  size_t max_iterations = 0;    ///< 0 means 4 * dim + 16
  /// Tikhonov shift: solves (A + diag_shift·I) x = b. The recovery policy
  /// raises it on repeated breakdown to restore positive definiteness of a
  /// numerically indefinite system; 0 (the default) changes nothing.
  double diag_shift = 0.0;
  /// Test-only fault injection: report an immediate breakdown without
  /// touching x (drives the recovery-path tests; never set in production).
  bool inject_breakdown = false;
};

struct CgResult {
  size_t iterations = 0;
  double residual_norm = 0.0;  ///< final ||b - Ax||
  bool converged = false;
  /// True when the solve aborted on pAp <= 0 — the matrix was not SPD (or
  /// lost definiteness numerically). Distinct from running out of the
  /// iteration budget, which leaves breakdown false with converged false.
  bool breakdown = false;
};

/// Persistent scratch for solve_pcg. The residual/direction vectors, the
/// Jacobi diagonal and the per-block reduction partials are plain members
/// reused across calls: once warm (sized by a first solve of the same
/// dimension), a steady-state solve performs zero heap allocations —
/// asserted by the allocation-counting test in test_linalg.
struct CgWorkspace {
  Vec r, z, p, Ap, inv_diag;
  Vec pAp_part, rz_part, rr_part;  ///< one partial per kReduceChunk block
};

/// Solves A x = b in place (x is the initial guess on entry, solution on
/// exit) with Jacobi (diagonal) preconditioning. Scratch vectors live in
/// `ws` and are resized only when the dimension changes.
CgResult solve_pcg(const CsrMatrix& A, const Vec& b, Vec& x,
                   const CgOptions& opts, CgWorkspace& ws);

/// Convenience overload with a throwaway workspace (allocates scratch per
/// call); bitwise identical to the workspace form.
CgResult solve_pcg(const CsrMatrix& A, const Vec& b, Vec& x,
                   const CgOptions& opts = {});

}  // namespace complx
