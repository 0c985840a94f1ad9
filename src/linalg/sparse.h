// Sparse symmetric-positive-definite matrix support for quadratic placement.
//
// The placer stamps the connectivity Laplacian plus anchor diagonal into a
// TripletList (duplicates allowed, summed on conversion), then builds CSR
// once per placement iteration for the CG solve. Only the operations the
// placer needs are implemented: stamping, CSR build, SpMV, diagonal
// extraction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "linalg/vec.h"

namespace complx {

class CsrMatrix;
struct CsrBuildScratch;

/// Stamp store for symmetric Laplacian-plus-diagonal matrices.
///
/// Diagonal contributions accumulate into a dense per-row diagonal (the
/// first contribution to a row is an assignment, so a lone -0.0 survives);
/// each spring is kept as one compact (i, j, w) edge. Duplicates are summed
/// in arrival order, so net-model code can stamp one spring per net edge
/// without pre-merging. Indices are range-checked when stamped.
class TripletList {
 public:
  /// Throws std::invalid_argument when n does not fit the 32-bit edge
  /// indices.
  explicit TripletList(size_t n);

  size_t dim() const { return n_; }

  /// Reserves room for `springs` add_spring() calls.
  void reserve(size_t springs) { edges_.reserve(springs); }

  /// A[i][i] += v
  void add_diag(size_t i, double v) {
    if (i >= n_) throw std::out_of_range("stamp index out of range");
    stamp_diag(i, v);
  }

  /// Adds the 2x2 stamp of a spring between i and j with weight w:
  /// A[i][i]+=w, A[j][j]+=w, A[i][j]-=w, A[j][i]-=w. A spring needs two
  /// distinct endpoints (std::invalid_argument otherwise).
  void add_spring(size_t i, size_t j, double w) {
    if (i >= n_ || j >= n_) throw std::out_of_range("stamp index out of range");
    if (i == j) throw std::invalid_argument("spring endpoints coincide");
    stamp_diag(i, w);
    stamp_diag(j, w);
    edges_.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j), w});
  }

  /// Empties the store, keeping every buffer's capacity.
  void clear();

 private:
  friend void build_csr(const TripletList& t, CsrMatrix& m,
                        CsrBuildScratch& scratch);

  struct Edge {
    uint32_t i, j;
    double w;
  };

  void stamp_diag(size_t i, double v) {
    if (has_diag_[i]) {
      diag_[i] += v;
    } else {
      diag_[i] = v;
      has_diag_[i] = 1;
    }
  }

  size_t n_;
  std::vector<double> diag_;       ///< valid where has_diag_ is set
  std::vector<uint8_t> has_diag_;  ///< row has a diagonal contribution
  std::vector<Edge> edges_;        ///< springs in arrival order
};

/// Compressed-sparse-row matrix (square), built from a TripletList by
/// build_csr(); immutable afterwards.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds CSR from a stamp store, summing duplicates. O(nnz + n) plus the
  /// per-row column sort.
  static CsrMatrix from_triplets(const TripletList& t);

  size_t dim() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  size_t nnz() const { return col_.size(); }

  /// y = A * x
  void multiply(const Vec& x, Vec& y) const;

  /// Returns the diagonal of A (for Jacobi preconditioning).
  Vec diagonal() const;

  /// Writes the diagonal into `d` (resized to dim()). Buffer-reusing form
  /// of diagonal() — no allocation when d already has the capacity.
  void diagonal_into(Vec& d) const;

  /// Max |A[i][j] - A[j][i]| over sampled entries — exact symmetry check
  /// used by tests (O(nnz log) via lookups).
  double symmetry_error() const;

  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<size_t>& col() const { return col_; }
  const std::vector<double>& val() const { return val_; }

  /// A[i][j] by binary search over row i (0 when absent).
  double at(size_t i, size_t j) const;

 private:
  friend void build_csr(const TripletList& t, CsrMatrix& m,
                        CsrBuildScratch& scratch);

  std::vector<size_t> row_ptr_;
  std::vector<size_t> col_;
  std::vector<double> val_;
};

/// Buffers of build_csr(), kept by the caller so that repeated builds stop
/// allocating once the buffers have grown. The contents are build_csr's
/// business.
struct CsrBuildScratch {
  struct Slot {
    uint64_t key;  ///< column << 32 | arrival index of the spring
    double val;
  };
  std::vector<size_t> start;  ///< off-diagonal slot offsets per row (n+1)
  std::vector<size_t> fill;   ///< scatter cursors, then merged row lengths
  std::vector<Slot> slots;    ///< off-diagonal slots, grouped by row
};

/// Builds `t` into `m`, reusing the capacity of `m` and `scratch`.
///
/// Every entry is the sum of its contributions in arrival order, the first
/// one assigned: the diagonal comes from the dense stamp, each off-diagonal
/// (i, j) from the springs between i and j in the order they were stamped.
/// Rows are sorted and merged row-parallel, each row by exactly one chunk,
/// so the result is bitwise independent of the thread count.
void build_csr(const TripletList& t, CsrMatrix& m, CsrBuildScratch& scratch);

}  // namespace complx
