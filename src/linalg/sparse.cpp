#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/parallel.h"

namespace complx {

namespace {

using Slot = CsrBuildScratch::Slot;

uint32_t col_of(const Slot& s) { return static_cast<uint32_t>(s.key >> 32); }

}  // namespace

TripletList::TripletList(size_t n) : n_(n) {
  if (n > std::numeric_limits<uint32_t>::max())
    throw std::invalid_argument("matrix dimension exceeds 32-bit indices");
  diag_.resize(n);
  has_diag_.resize(n);
}

void TripletList::clear() {
  std::fill(has_diag_.begin(), has_diag_.end(), uint8_t{0});
  edges_.clear();
}

CsrMatrix CsrMatrix::from_triplets(const TripletList& t) {
  CsrMatrix m;
  CsrBuildScratch scratch;
  build_csr(t, m, scratch);
  return m;
}

void build_csr(const TripletList& t, CsrMatrix& m, CsrBuildScratch& scratch) {
  const size_t n = t.n_;
  std::vector<size_t>& start = scratch.start;
  std::vector<size_t>& fill = scratch.fill;
  std::vector<Slot>& slots = scratch.slots;

  const std::vector<TripletList::Edge>& edges = t.edges_;
  if (edges.size() > std::numeric_limits<uint32_t>::max())
    throw std::length_error("too many springs for 32-bit slot keys");

  // Counting pass: each spring owns one slot in the row of either end.
  start.assign(n + 1, 0);
  for (const TripletList::Edge& e : edges) {
    ++start[e.i + 1];
    ++start[e.j + 1];
  }
  for (size_t i = 0; i < n; ++i) start[i + 1] += start[i];

  // Scatter pass (serial): every row receives its slots in arrival order.
  fill.assign(start.begin(), start.end() - 1);
  slots.resize(start[n]);
  for (size_t k = 0; k < edges.size(); ++k) {
    const TripletList::Edge& e = edges[k];
    slots[fill[e.i]++] = {uint64_t{e.j} << 32 | k, -e.w};
    slots[fill[e.j]++] = {uint64_t{e.i} << 32 | k, -e.w};
  }

  // Row pass A (row-parallel): sort each row by column and merge duplicate
  // columns in place — the first contribution is an assignment, the rest
  // are added in arrival order. Keys are unique within a row (a spring has
  // one slot per row), so std::sort keeps equal columns in arrival order
  // and needs no temporary buffer. fill[i] becomes the merged length.
  parallel_for(n, [&](size_t row_begin, size_t row_end) {
    for (size_t i = row_begin; i < row_end; ++i) {
      Slot* row = slots.data() + start[i];
      const size_t len = start[i + 1] - start[i];
      std::sort(row, row + len,
                [](const Slot& a, const Slot& b) { return a.key < b.key; });
      size_t out = 0;
      for (size_t k = 0; k < len; ++k) {
        if (out > 0 && col_of(row[out - 1]) == col_of(row[k]))
          row[out - 1].val += row[k].val;
        else
          row[out++] = row[k];
      }
      fill[i] = out;
    }
  });

  m.row_ptr_.resize(n + 1);
  m.row_ptr_[0] = 0;
  for (size_t i = 0; i < n; ++i)
    m.row_ptr_[i + 1] = m.row_ptr_[i] + fill[i] + t.has_diag_[i];
  m.col_.resize(m.row_ptr_[n]);
  m.val_.resize(m.row_ptr_[n]);

  // Row pass B (row-parallel): copy the merged off-diagonals and insert the
  // diagonal at its column.
  parallel_for(n, [&](size_t row_begin, size_t row_end) {
    for (size_t i = row_begin; i < row_end; ++i) {
      const Slot* row = slots.data() + start[i];
      const size_t len = fill[i];
      size_t out = m.row_ptr_[i];
      size_t k = 0;
      for (; k < len && col_of(row[k]) < i; ++k, ++out) {
        m.col_[out] = col_of(row[k]);
        m.val_[out] = row[k].val;
      }
      if (t.has_diag_[i]) {
        m.col_[out] = i;
        m.val_[out] = t.diag_[i];
        ++out;
      }
      for (; k < len; ++k, ++out) {
        m.col_[out] = col_of(row[k]);
        m.val_[out] = row[k].val;
      }
    }
  });
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

Vec CsrMatrix::diagonal() const {
  Vec d;
  diagonal_into(d);
  return d;
}

void CsrMatrix::diagonal_into(Vec& d) const {
  const size_t n = dim();
  d.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i)
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
      if (col_[k] == i) d[i] = val_[k];
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
