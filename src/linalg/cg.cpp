#include "linalg/cg.h"

#include <cmath>
#include <stdexcept>

#include "util/fpcmp.h"
#include "util/parallel.h"

namespace complx {

namespace {

/// Runs body(block, begin, end) over the fixed kReduceChunk blocks of
/// [0, n); a block's partial sums depend on n only, never on the threads.
template <typename Body>
void for_blocks(size_t n, const Body& body) {
  parallel_for(
      n,
      [&](size_t begin, size_t end) { body(begin / kReduceChunk, begin, end); },
      kReduceChunk);
}

/// Adds the block partials in block order — parallel_sum's addition
/// sequence, so a fused reduction has the bits of the dot() it replaces.
double block_sum(const Vec& part) {
  if (part.size() == 1) return part[0];
  double s = 0.0;
  for (double v : part) s += v;
  return s;
}

/// out = (A + shift·I) in; returns in·out.
double shifted_multiply_dot(const CsrMatrix& A, double shift, const Vec& in,
                            Vec& out, Vec& part) {
  const size_t* row_ptr = A.row_ptr().data();
  const uint32_t* col = A.col().data();
  const double* val = A.val().data();
  for_blocks(in.size(), [&](size_t block, size_t begin, size_t end) {
    double dot_in_out = 0.0;
    for (size_t i = begin; i < end; ++i) {
      double s = 0.0;
      for (size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k)
        s += val[k] * in[col[k]];
      if (shift > 0.0) s += shift * in[i];
      out[i] = s;
      dot_in_out += in[i] * s;
    }
    part[block] = dot_in_out;
  });
  return block_sum(part);
}

}  // namespace

CgResult solve_pcg(const CsrMatrix& A, const Vec& b, Vec& x,
                   const CgOptions& opts) {
  CgWorkspace ws;
  return solve_pcg(A, b, x, opts, ws);
}

CgResult solve_pcg(const CsrMatrix& A, const Vec& b, Vec& x,
                   const CgOptions& opts, CgWorkspace& ws) {
  const size_t n = A.dim();
  if (b.size() != n || x.size() != n)
    throw std::invalid_argument("CG dimension mismatch");

  CgResult result;
  const double b_norm = norm2(b);
  if (opts.inject_breakdown) {
    result.residual_norm = b_norm;
    result.breakdown = true;
    return result;
  }
  if (fp::exactly_zero(b_norm)) {
    // x = 0 solves the system exactly; report a fully-populated result
    // (0 iterations, zero residual) instead of default-initialized fields.
    x.assign(n, 0.0);
    result.iterations = 0;
    result.residual_norm = 0.0;
    result.converged = true;
    return result;
  }

  // Optional Tikhonov shift: operate on A + σI without materializing it.
  const double shift = opts.diag_shift;

  // Jacobi preconditioner: M^{-1} = 1/diag(A). Zero diagonals (isolated,
  // unanchored variables) fall back to identity scaling.
  Vec& inv_diag = ws.inv_diag;
  A.diagonal_into(inv_diag);
  for (double& d : inv_diag) d = (d + shift > 0.0) ? 1.0 / (d + shift) : 1.0;

  // Workspace vectors: resize is a no-op once warm, and every element is
  // written before it is read, so stale contents never leak through.
  Vec& r = ws.r;
  Vec& z = ws.z;
  Vec& p = ws.p;
  Vec& Ap = ws.Ap;
  r.resize(n);
  z.resize(n);
  p.resize(n);
  Ap.resize(n);
  const size_t blocks = (n + kReduceChunk - 1) / kReduceChunk;
  ws.pAp_part.resize(blocks);
  ws.rz_part.resize(blocks);
  ws.rr_part.resize(blocks);
  shifted_multiply_dot(A, shift, x, Ap, ws.pAp_part);
  for (size_t i = 0; i < n; ++i) r[i] = b[i] - Ap[i];
  for (size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  p = z;
  double rz = dot(r, z);

  const size_t max_iter =
      opts.max_iterations ? opts.max_iterations : 4 * n + 16;
  const double tol = opts.rel_tolerance * b_norm;

  // Three passes per iteration: SpMV fused with p·Ap; the x, r and z
  // updates fused with r·z and r·r; the direction update. Every value and
  // every reduction order is that of the textbook loop (SpMV, dot, two
  // axpys, z, dot, xpay, norm2), so the fusion changes no bits.
  //
  // The residual norm is computed once per iteration (after the update) and
  // carried into both the convergence test and the reported result, so
  // result.iterations / result.residual_norm always describe the same
  // iterate on every exit path (converged, breakdown, or budget exhausted).
  double r_norm = norm2(r);
  size_t it = 0;
  for (; it < max_iter && r_norm > tol; ++it) {
    const double pAp = shifted_multiply_dot(A, shift, p, Ap, ws.pAp_part);
    if (pAp <= 0.0) {  // not SPD (or numerical breakdown)
      result.breakdown = true;
      break;
    }
    const double alpha = rz / pAp;
    for_blocks(n, [&](size_t block, size_t begin, size_t end) {
      double rz_block = 0.0, rr_block = 0.0;
      for (size_t i = begin; i < end; ++i) {
        x[i] += alpha * p[i];
        r[i] += -alpha * Ap[i];
        z[i] = inv_diag[i] * r[i];
        rz_block += r[i] * z[i];
        rr_block += r[i] * r[i];
      }
      ws.rz_part[block] = rz_block;
      ws.rr_part[block] = rr_block;
    });
    const double rz_next = block_sum(ws.rz_part);
    const double beta = rz_next / rz;
    rz = rz_next;
    parallel_for(n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) p[i] = beta * p[i] + z[i];
    });
    r_norm = std::sqrt(block_sum(ws.rr_part));
  }
  result.iterations = it;
  result.residual_norm = r_norm;
  result.converged = r_norm <= tol;
  return result;
}

}  // namespace complx
