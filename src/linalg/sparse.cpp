#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/parallel.h"

namespace complx {

StampStore::StampStore(size_t n) : n_(n) {
  if (n > std::numeric_limits<uint32_t>::max())
    throw std::invalid_argument("matrix dimension exceeds 32-bit indices");
  diag_.resize(n);
  has_diag_.resize(n);
}

void StampStore::clear() {
  std::fill(has_diag_.begin(), has_diag_.end(), uint8_t{0});
  edges_.clear();
}

CsrMatrix CsrMatrix::from_stamps(const StampStore& t) {
  CsrMatrix m;
  CsrBuildScratch scratch;
  build_csr(t, m, scratch);
  return m;
}

void build_csr(const StampStore& t, CsrMatrix& m, CsrBuildScratch& scratch) {
  const size_t n = t.n_;
  const std::vector<StampStore::Edge>& edges = t.edges_;
  if (edges.size() > std::numeric_limits<uint32_t>::max())
    throw std::length_error("too many springs for 32-bit spring indices");
  std::vector<size_t>& start = scratch.start;
  std::vector<size_t>& fill = scratch.fill;
  std::vector<uint32_t>& incident = scratch.incident;

  // Row r owns slots [start[r], start[r + 1]) of the CSR arrays: one per
  // spring at r plus one spare for the diagonal. Its springs are bucketed
  // at incident[start[r] - r ...], which has no spare slot.
  start.assign(n + 1, 0);
  for (const StampStore::Edge& e : edges) {
    ++start[e.i + 1];
    ++start[e.j + 1];
  }
  for (size_t r = 0; r < n; ++r) start[r + 1] += start[r] + 1;

  // Bucket the springs by row, each bucket in arrival order.
  fill.resize(n);
  for (size_t r = 0; r < n; ++r) fill[r] = start[r] - r;
  incident.resize(start[n] - n);
  for (size_t k = 0; k < edges.size(); ++k) {
    incident[fill[edges[k].i]++] = static_cast<uint32_t>(k);
    incident[fill[edges[k].j]++] = static_cast<uint32_t>(k);
  }

  // Walk the buckets in row order c and append (c, -w) to the other end's
  // row: each row receives its entries sorted by column, equal columns in
  // arrival order, and merges them as they arrive — the first assigned, the
  // rest added. The diagonal goes in when c reaches its own row.
  m.col_.resize(start[n]);
  m.val_.resize(start[n]);
  m.diag_.resize(n);
  uint32_t* col = m.col_.data();
  double* val = m.val_.data();
  fill.assign(start.begin(), start.end() - 1);
  for (size_t c = 0; c < n; ++c) {
    m.diag_[c] = 0.0;
    if (t.has_diag_[c]) {
      m.diag_[c] = t.diag_[c];
      col[fill[c]] = static_cast<uint32_t>(c);
      val[fill[c]++] = t.diag_[c];
    }
    for (size_t s = start[c] - c; s < start[c + 1] - c - 1; ++s) {
      const StampStore::Edge& e = edges[incident[s]];
      const size_t r = e.i ^ e.j ^ c;
      const double v = -e.w;
      size_t& out = fill[r];
      if (out > start[r] && col[out - 1] == c) {
        val[out - 1] += v;
      } else {
        col[out] = static_cast<uint32_t>(c);
        val[out++] = v;
      }
    }
  }

  // Compact the rows forward over the unused slots.
  m.row_ptr_.resize(n + 1);
  m.row_ptr_[0] = 0;
  size_t nnz = 0;
  for (size_t r = 0; r < n; ++r) {
    for (size_t k = start[r]; k < fill[r]; ++k, ++nnz) {
      col[nnz] = col[k];
      val[nnz] = val[k];
    }
    m.row_ptr_[r + 1] = nnz;
  }
  m.col_.resize(nnz);
  m.val_.resize(nnz);
}

void CsrMatrix::multiply(const Vec& x, Vec& y) const {
  const size_t n = dim();
  if (x.size() != n) throw std::invalid_argument("SpMV dimension mismatch");
  y.resize(n);
  // Row-parallel: each y[i] is the same left-to-right accumulation as the
  // serial loop, so the result is bitwise identical at any thread count.
  parallel_for(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      double s = 0.0;
      for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
        s += val_[k] * x[col_[k]];
      y[i] = s;
    }
  });
}

double CsrMatrix::at(size_t i, size_t j) const {
  const auto begin = col_.begin() + static_cast<ptrdiff_t>(row_ptr_[i]);
  const auto end = col_.begin() + static_cast<ptrdiff_t>(row_ptr_[i + 1]);
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return 0.0;
  return val_[static_cast<size_t>(it - col_.begin())];
}

double CsrMatrix::symmetry_error() const {
  double err = 0.0;
  for (size_t i = 0; i < dim(); ++i)
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
      err = std::max(err, std::abs(val_[k] - at(col_[k], i)));
  return err;
}

}  // namespace complx
