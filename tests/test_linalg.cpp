#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <utility>
#include <vector>

#include "helpers.h"
#include "linalg/cg.h"
#include "linalg/sparse.h"
#include "qp/solver.h"
#include "qp/system_builder.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "wl/b2b.h"

// Global operator new/delete replacement for the steady-state
// allocation-freedom test below. The counter only ticks while armed, so the
// rest of the binary (gtest bookkeeping, test setup) is unaffected. Must
// live at global scope — allocation functions cannot be namespace members.
namespace alloc_counter {
std::atomic<bool> armed{false};
std::atomic<size_t> news{0};

size_t drain() {
  armed.store(false, std::memory_order_relaxed);
  return news.exchange(0, std::memory_order_relaxed);
}
void arm() { armed.store(true, std::memory_order_relaxed); }
}  // namespace alloc_counter

// GCC pairs the malloc inside the replaced operator new with deletes at
// call sites and (wrongly) reports a mismatch; every allocation in this
// binary goes through these replacements, so malloc/free always pair up.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t sz) {
  if (alloc_counter::armed.load(std::memory_order_relaxed))
    alloc_counter::news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace complx {
namespace {

// ------------------------------------------------------------- vectors ----

TEST(Vec, DotAndNorm) {
  Vec a{1, 2, 3}, b{4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 4 - 10 + 18);
  EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
}

TEST(Vec, Axpy) {
  Vec x{1, 2}, y{10, 20};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

TEST(Vec, Xpay) {
  Vec x{1, 2}, y{10, 20};
  xpay(y, 3.0, x);  // x = 3x + y
  EXPECT_DOUBLE_EQ(x[0], 13.0);
  EXPECT_DOUBLE_EQ(x[1], 26.0);
}

TEST(Vec, Distances) {
  EXPECT_DOUBLE_EQ(l1_dist(Vec{0, 0}, Vec{3, -4}), 7.0);
  EXPECT_DOUBLE_EQ(linf_dist(Vec{0, 0}, Vec{3, -4}), 4.0);
}

// ----------------------------------------------------------------- CSR ----

TEST(Csr, FromStampsMergesDuplicates) {
  StampStore t(3);
  t.add_diag(0, 1.0);
  t.add_diag(0, 2.0);  // duplicate: must sum to 3
  t.add_spring(0, 1, 4.0);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  EXPECT_EQ(A.dim(), 3u);
  EXPECT_DOUBLE_EQ(A.at(0, 0), 3.0 + 4.0);
  EXPECT_DOUBLE_EQ(A.at(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(A.at(0, 1), -4.0);
  EXPECT_DOUBLE_EQ(A.at(1, 0), -4.0);
  EXPECT_DOUBLE_EQ(A.at(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(A.at(0, 2), 0.0);
}

TEST(Csr, SpMV) {
  StampStore t(2);
  t.add_diag(0, 2.0);
  t.add_diag(1, 3.0);
  t.add_spring(0, 1, 1.0);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  // A = [[3, -1], [-1, 4]]
  Vec y;
  A.multiply({1.0, 2.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0 - 2.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0 + 8.0);
}

TEST(Csr, Diagonal) {
  StampStore t(3);
  t.add_spring(0, 2, 5.0);
  t.add_diag(1, 7.0);
  const Vec d = CsrMatrix::from_stamps(t).diagonal();
  EXPECT_DOUBLE_EQ(d[0], 5.0);
  EXPECT_DOUBLE_EQ(d[1], 7.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
}

TEST(Csr, SymmetryOfSpringAssembly) {
  Rng rng(11);
  StampStore t(50);
  for (int k = 0; k < 300; ++k) {
    const size_t i = rng.uniform_index(50), j = rng.uniform_index(50);
    if (i == j)
      t.add_diag(i, rng.uniform(0.1, 2.0));
    else
      t.add_spring(i, j, rng.uniform(0.1, 2.0));
  }
  EXPECT_LT(CsrMatrix::from_stamps(t).symmetry_error(), 1e-12);
}

TEST(Csr, OutOfRangeThrows) {
  StampStore t(2);
  EXPECT_THROW(t.add_diag(5, 1.0), std::out_of_range);
  EXPECT_THROW(t.add_spring(0, 2, 1.0), std::out_of_range);
  EXPECT_THROW(t.add_spring(7, 1, 1.0), std::out_of_range);
  // A rejected stamp leaves nothing behind.
  EXPECT_EQ(CsrMatrix::from_stamps(t).nnz(), 0u);
}

TEST(Csr, SpringWithCoincidentEndsThrows) {
  StampStore t(3);
  EXPECT_THROW(t.add_spring(1, 1, 1.0), std::invalid_argument);
  EXPECT_EQ(CsrMatrix::from_stamps(t).nnz(), 0u);
}

TEST(Csr, DimensionBeyond32BitIndicesThrows) {
  EXPECT_THROW(StampStore(size_t{1} << 33), std::invalid_argument);
}

TEST(Csr, DimensionMismatchThrows) {
  StampStore t(2);
  t.add_diag(0, 1.0);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  Vec y;
  EXPECT_THROW(A.multiply({1.0, 2.0, 3.0}, y), std::invalid_argument);
}

// ------------------------------------------------------------------ CG ----

TEST(Cg, SolvesSmallSystemExactly) {
  // A = [[4, -1], [-1, 3]], b = [1, 2] => x = [5/11, 9/11]... verify by Ax=b.
  StampStore t(2);
  t.add_diag(0, 3.0);
  t.add_diag(1, 2.0);
  t.add_spring(0, 1, 1.0);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  Vec x(2, 0.0);
  const CgResult res = solve_pcg(A, {1.0, 2.0}, x, {.rel_tolerance = 1e-12});
  EXPECT_TRUE(res.converged);
  Vec ax;
  A.multiply(x, ax);
  EXPECT_NEAR(ax[0], 1.0, 1e-9);
  EXPECT_NEAR(ax[1], 2.0, 1e-9);
}

TEST(Cg, ZeroRhsGivesZero) {
  StampStore t(3);
  for (size_t i = 0; i < 3; ++i) t.add_diag(i, 1.0);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  Vec x{5.0, -2.0, 1.0};
  const CgResult res = solve_pcg(A, Vec(3, 0.0), x);
  EXPECT_TRUE(res.converged);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
  // The early return must report a fully-consistent result, not stale
  // default fields: the x = 0 solution is exact after 0 iterations.
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_DOUBLE_EQ(res.residual_norm, 0.0);
}

TEST(Cg, MaxIterationExhaustionReportsConsistentResult) {
  // Laplacian chain: needs ~n iterations, so a budget of 3 must run out.
  const size_t n = 200;
  StampStore t(n);
  for (size_t i = 0; i + 1 < n; ++i) t.add_spring(i, i + 1, 1.0);
  t.add_diag(0, 1.0);
  t.add_diag(n - 1, 1.0);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  Vec b(n, 0.0);
  b[n - 1] = 100.0;

  Vec x(n, 0.0);
  const CgResult res =
      solve_pcg(A, b, x, {.rel_tolerance = 1e-12, .max_iterations = 3});
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3u);
  // residual_norm must describe the returned x exactly.
  Vec ax(n);
  A.multiply(x, ax);
  Vec r(n);
  for (size_t i = 0; i < n; ++i) r[i] = b[i] - ax[i];
  EXPECT_NEAR(res.residual_norm, norm2(r), 1e-9 * norm2(b));
  EXPECT_GT(res.residual_norm, 1e-12 * norm2(b));
}

TEST(Cg, WarmStartReducesIterations) {
  // Laplacian chain with anchors at the ends.
  const size_t n = 200;
  StampStore t(n);
  for (size_t i = 0; i + 1 < n; ++i) t.add_spring(i, i + 1, 1.0);
  t.add_diag(0, 1.0);
  t.add_diag(n - 1, 1.0);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  Vec b(n, 0.0);
  b[0] = 0.0;
  b[n - 1] = 100.0;

  Vec cold(n, 0.0);
  const CgResult cold_res = solve_pcg(A, b, cold);
  ASSERT_TRUE(cold_res.converged);

  Vec warm = cold;  // exact solution as start
  const CgResult warm_res = solve_pcg(A, b, warm);
  EXPECT_TRUE(warm_res.converged);
  EXPECT_LT(warm_res.iterations, cold_res.iterations);
}

TEST(Cg, BreakdownFlagOnIndefiniteSystem) {
  // A negative diagonal makes pAp < 0 on the first step: the solve must
  // report breakdown (not merely "did not converge") and leave x finite.
  StampStore t(2);
  t.add_diag(0, -5.0);
  t.add_diag(1, -3.0);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  Vec x(2, 0.0);
  const CgResult res = solve_pcg(A, {1.0, 2.0}, x);
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(Cg, BudgetExhaustionIsNotBreakdown) {
  const size_t n = 200;
  StampStore t(n);
  for (size_t i = 0; i + 1 < n; ++i) t.add_spring(i, i + 1, 1.0);
  t.add_diag(0, 1.0);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  Vec b(n, 1.0);
  Vec x(n, 0.0);
  const CgResult res =
      solve_pcg(A, b, x, {.rel_tolerance = 1e-12, .max_iterations = 2});
  EXPECT_FALSE(res.converged);
  EXPECT_FALSE(res.breakdown);
}

TEST(Cg, InjectedBreakdownLeavesGuessUntouched) {
  StampStore t(2);
  t.add_diag(0, 2.0);
  t.add_diag(1, 2.0);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  Vec x{7.0, -3.0};
  CgOptions opts;
  opts.inject_breakdown = true;
  const CgResult res = solve_pcg(A, {1.0, 1.0}, x, opts);
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  // The warm-start guess is the caller's fallback state: untouched.
  EXPECT_DOUBLE_EQ(x[0], 7.0);
  EXPECT_DOUBLE_EQ(x[1], -3.0);
}

TEST(Cg, DiagShiftSolvesShiftedSystem) {
  // A = diag(2), shift = 3: the solve must satisfy (A + 3I) x = b.
  StampStore t(2);
  t.add_diag(0, 2.0);
  t.add_diag(1, 2.0);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  Vec x(2, 0.0);
  CgOptions opts;
  opts.rel_tolerance = 1e-12;
  opts.diag_shift = 3.0;
  const CgResult res = solve_pcg(A, {10.0, -5.0}, x, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(x[0], 2.0, 1e-9);
  EXPECT_NEAR(x[1], -1.0, 1e-9);
}

TEST(Cg, DiagShiftRestoresDefiniteness) {
  // Indefinite alone (diagonal -1), SPD once shifted by 2: breakdown
  // without the shift, clean convergence with it — the recovery policy's
  // Tikhonov escape hatch.
  StampStore t(2);
  t.add_diag(0, -1.0);
  t.add_diag(1, -1.0);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  Vec x(2, 0.0);
  EXPECT_TRUE(solve_pcg(A, {1.0, 1.0}, x).breakdown);
  x.assign(2, 0.0);
  CgOptions opts;
  opts.rel_tolerance = 1e-12;
  opts.diag_shift = 2.0;
  const CgResult res = solve_pcg(A, {1.0, 1.0}, x, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_FALSE(res.breakdown);
  EXPECT_NEAR(x[0], 1.0, 1e-9);  // (-1 + 2) x = 1
  EXPECT_NEAR(x[1], 1.0, 1e-9);
}

struct RandomSpdCase {
  size_t n;
  uint64_t seed;
};

class CgRandomSpd : public ::testing::TestWithParam<RandomSpdCase> {};

TEST_P(CgRandomSpd, SolvesRandomLaplacianPlusDiagonal) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  StampStore t(n);
  // Random connected-ish graph Laplacian + positive diagonal => SPD.
  for (size_t i = 0; i + 1 < n; ++i)
    t.add_spring(i, i + 1, rng.uniform(0.5, 2.0));
  for (size_t k = 0; k < 3 * n; ++k) {
    const size_t i = rng.uniform_index(n), j = rng.uniform_index(n);
    if (i != j) t.add_spring(i, j, rng.uniform(0.1, 1.0));
  }
  for (size_t i = 0; i < n; ++i) t.add_diag(i, rng.uniform(0.01, 0.5));
  const CsrMatrix A = CsrMatrix::from_stamps(t);

  Vec x_true(n);
  for (size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-10, 10);
  Vec b;
  A.multiply(x_true, b);

  Vec x(n, 0.0);
  const CgResult res = solve_pcg(A, b, x, {.rel_tolerance = 1e-10});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(linf_dist(x, x_true), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgRandomSpd,
                         ::testing::Values(RandomSpdCase{10, 1},
                                           RandomSpdCase{50, 2},
                                           RandomSpdCase{200, 3},
                                           RandomSpdCase{500, 4},
                                           RandomSpdCase{1000, 5}));

// ------------------------------------------------------------ CSR build ----

uint64_t dbits(double v) { return std::bit_cast<uint64_t>(v); }

void expect_bitwise_equal(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.row_ptr(), b.row_ptr());
  ASSERT_EQ(a.col(), b.col());
  ASSERT_EQ(a.val().size(), b.val().size());
  for (size_t i = 0; i < a.val().size(); ++i)
    ASSERT_EQ(dbits(a.val()[i]), dbits(b.val()[i])) << "val[" << i << "]";
  const Vec da = a.diagonal(), db = b.diagonal();
  ASSERT_EQ(da.size(), db.size());
  for (size_t i = 0; i < da.size(); ++i)
    ASSERT_EQ(dbits(da[i]), dbits(db[i])) << "diagonal[" << i << "]";
}

/// Random SPD system: a chain, random extra springs and a full anchor
/// diagonal.
StampStore random_system(size_t n, uint64_t seed) {
  Rng rng(seed);
  StampStore t(n);
  for (size_t i = 0; i + 1 < n; ++i)
    t.add_spring(i, i + 1, rng.uniform(0.5, 2.0));
  for (size_t k = 0; k < 3 * n; ++k) {
    const size_t i = rng.uniform_index(n), j = rng.uniform_index(n);
    if (i != j) t.add_spring(i, j, rng.uniform(0.1, 1.0));
  }
  for (size_t i = 0; i < n; ++i) t.add_diag(i, rng.uniform(0.01, 0.5));
  return t;
}

/// One stamping call: add_spring(i, j, w), or add_diag(i, w) when i == j.
struct Stamp {
  size_t i, j;
  double w;
};

void stamp_all(const std::vector<Stamp>& stamps, StampStore& t) {
  for (const Stamp& s : stamps) {
    if (s.i == s.j)
      t.add_diag(s.i, s.w);
    else
      t.add_spring(s.i, s.j, s.w);
  }
}

/// Naive reference build: every contribution lands in a (row, col)-ordered
/// map in arrival order, the first contribution to an entry assigned and
/// the rest added.
struct ReferenceCsr {
  std::vector<size_t> row_ptr;
  std::vector<uint32_t> col;
  std::vector<double> val;
};

ReferenceCsr reference_build(size_t n, const std::vector<Stamp>& stamps) {
  std::map<std::pair<size_t, size_t>, double> entries;
  auto add = [&](size_t r, size_t c, double v) {
    const auto [it, inserted] = entries.try_emplace({r, c}, v);
    if (!inserted) it->second += v;
  };
  for (const Stamp& s : stamps) {
    add(s.i, s.i, s.w);
    if (s.i == s.j) continue;
    add(s.j, s.j, s.w);
    add(s.i, s.j, -s.w);
    add(s.j, s.i, -s.w);
  }
  ReferenceCsr ref;
  ref.row_ptr.assign(n + 1, 0);
  for (const auto& [key, v] : entries) {
    ++ref.row_ptr[key.first + 1];
    ref.col.push_back(static_cast<uint32_t>(key.second));
    ref.val.push_back(v);
  }
  for (size_t i = 0; i < n; ++i) ref.row_ptr[i + 1] += ref.row_ptr[i];
  return ref;
}

/// Stamps with every ordering hazard of the build: repeated (i, j) and
/// (j, i) springs, -0.0 first contributions, rows never stamped, and one
/// star row whose 600 springs arrive shuffled — to 600 distinct neighbours
/// when n allows, else wrapping onto repeated ones.
std::vector<Stamp> hazard_stamps(size_t n, uint64_t seed,
                                 size_t random_springs) {
  Rng rng(seed);
  // Row 0 is the star's centre (neighbours from row 10 on), rows 3-8 take
  // only the signed-zero stamps, rows 1, 2, 9 and [live, n) take none.
  const size_t live = n - 50;
  std::vector<Stamp> stamps;
  stamps.push_back({3, 3, -0.0});   // row 3's diagonal stays -0.0 ...
  stamps.push_back({4, 4, -0.0});   // ... row 4's is -0.0 + 1.5
  stamps.push_back({4, 4, 1.5});
  stamps.push_back({5, 6, 0.0});    // off-diagonal -0.0, diagonal +0.0
  stamps.push_back({7, 8, -0.0});   // off-diagonal +0.0, diagonal -0.0
  for (size_t k = 0; k < random_springs; ++k) {
    // Small index pairs repeat often, in both orientations.
    const size_t span = k % 2 == 0 ? 40 : live;
    const size_t i = 10 + rng.uniform_index(span - 10);
    const size_t j = 10 + rng.uniform_index(span - 10);
    stamps.push_back({i, j, rng.uniform(-1.0, 2.0)});
  }
  std::vector<size_t> star;
  for (size_t k = 0; k < 600; ++k) star.push_back(10 + k % (live - 10));
  for (size_t k = star.size(); k > 1; --k)
    std::swap(star[k - 1], star[rng.uniform_index(k)]);
  for (size_t k = 0; k < star.size(); ++k) {
    const size_t nb = star[k];
    stamps.push_back(k % 3 == 0 ? Stamp{nb, 0, rng.uniform(0.1, 1.0)}
                                : Stamp{0, nb, rng.uniform(0.1, 1.0)});
    if (k % 7 == 0) stamps.push_back({0, nb, rng.uniform(0.1, 1.0)});
  }
  return stamps;
}

TEST(CsrBuild, MatchesNaiveReferenceBitwise) {
  struct Case {
    size_t n, random_springs;
    uint64_t seed;
  };
  // Three sparse cases, and one shaped like a coarse multilevel level: 300
  // rows and 60k springs, so rows are long and mostly duplicates.
  const Case cases[] = {
      {1200, 4 * 1150, 31}, {1200, 4 * 1150, 32}, {1200, 4 * 1150, 33},
      {300, 60000, 35}};
  const size_t prev = global_threads();
  for (const size_t threads : {1, 8}) {
    set_global_threads(threads);
    for (const Case& c : cases) {
      const size_t n = c.n;
      const std::vector<Stamp> stamps =
          hazard_stamps(n, c.seed, c.random_springs);
      StampStore t(n);
      stamp_all(stamps, t);
      const CsrMatrix A = CsrMatrix::from_stamps(t);
      const ReferenceCsr ref = reference_build(n, stamps);
      ASSERT_EQ(A.row_ptr(), ref.row_ptr) << "seed " << c.seed;
      ASSERT_EQ(A.col(), ref.col) << "seed " << c.seed;
      ASSERT_EQ(A.val().size(), ref.val.size());
      for (size_t k = 0; k < ref.val.size(); ++k)
        ASSERT_EQ(dbits(A.val()[k]), dbits(ref.val[k]))
            << "val[" << k << "], seed " << c.seed << ", " << threads
            << " threads";
      // The star row: its diagonal and one entry per distinct neighbour.
      const size_t star_neighbours = std::min<size_t>(600, n - 60);
      ASSERT_EQ(A.row_ptr()[1] - A.row_ptr()[0], star_neighbours + 1);
      EXPECT_EQ(A.row_ptr()[n] - A.row_ptr()[n - 50], 0u);
      EXPECT_EQ(dbits(A.at(3, 3)), dbits(-0.0));
      EXPECT_EQ(dbits(A.at(5, 6)), dbits(-0.0));
      Vec d;
      A.diagonal_into(d);
      for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(dbits(d[i]), dbits(A.at(i, i))) << "diagonal " << i;
    }
  }
  set_global_threads(prev);
}

TEST(CsrBuild, SignedZeroSurvivesReuse) {
  // The first contribution to each entry must be an assignment, not a +=
  // onto zero, which would turn a lone -0.0 into +0.0 — also after clear()
  // on a store and a matrix that held values before. Row 2 is stamped
  // only before the clear(), so its kept diagonal must read +0.0 after.
  StampStore t(3);
  t.add_diag(0, 2.0);
  t.add_spring(0, 1, 0.5);
  t.add_diag(2, 3.0);
  CsrMatrix A;
  CsrBuildScratch scratch;
  build_csr(t, A, scratch);
  t.clear();
  t.add_diag(0, -0.0);
  t.add_diag(1, 1.0);
  build_csr(t, A, scratch);
  expect_bitwise_equal(A, CsrMatrix::from_stamps(t));
  EXPECT_EQ(A.nnz(), 2u);
  EXPECT_EQ(dbits(A.at(0, 0)), dbits(-0.0));
}

TEST(CsrBuild, ResultIndependentOfThreadCount) {
  const size_t prev = global_threads();
  const StampStore t = random_system(400, 24);
  set_global_threads(1);
  const CsrMatrix reference = CsrMatrix::from_stamps(t);
  set_global_threads(8);
  CsrMatrix threaded;
  CsrBuildScratch scratch;
  build_csr(t, threaded, scratch);
  build_csr(t, threaded, scratch);  // a rebuild on grown buffers as well
  expect_bitwise_equal(threaded, reference);
  set_global_threads(prev);
}

TEST(CsrBuild, SteadyStateAssemblyIsAllocationFree) {
  // Single-threaded so the serial fast path of parallel_for is exercised;
  // the multi-thread backend type-erases its body.
  const size_t prev = global_threads();
  set_global_threads(1);
  const Netlist nl = testing::small_circuit(27, 1500);
  const VarMap vars(nl);
  const Placement point = nl.snapshot();
  std::vector<PinSpring> springs;
  build_b2b(nl, point, Axis::X, B2bOptions{}, springs);
  SystemBuilder builder(nl, vars, Axis::X, point);
  SolveWorkspace ws;
  auto stamp_and_assemble = [&] {
    builder.reset(point);
    builder.add_pin_springs(springs);
    for (CellId id : nl.movable_cells())
      builder.add_anchor(id, point.x[id], 0.25);
    builder.assemble(ws);
  };
  stamp_and_assemble();  // warm-up: grows every buffer
  alloc_counter::arm();
  stamp_and_assemble();
  EXPECT_EQ(alloc_counter::drain(), 0u)
      << "a rebuild on grown buffers must not touch the heap";
  expect_bitwise_equal(ws.A, builder.build_matrix());

  // A long row (a 600-neighbour star) is also built on the caller's
  // buffers.
  const size_t n = 800;
  StampStore star(n);
  stamp_all(hazard_stamps(n, 34, 4 * (n - 50)), star);
  CsrMatrix A;
  CsrBuildScratch scratch;
  build_csr(star, A, scratch);
  alloc_counter::arm();
  build_csr(star, A, scratch);
  EXPECT_EQ(alloc_counter::drain(), 0u);
  set_global_threads(prev);
}

// --------------------------------------------------- fused PCG loop ----

/// The PCG loop as the textbook writes it, one vector pass per operation:
/// SpMV, dot, axpy, axpy, z, dot, xpay, norm2. solve_pcg fuses these into
/// three passes and must reproduce this loop bit for bit.
CgResult seven_pass_pcg(const CsrMatrix& A, const Vec& b, Vec& x,
                        const CgOptions& opts) {
  const size_t n = A.dim();
  CgResult result;
  const double b_norm = norm2(b);
  const double shift = opts.diag_shift;
  Vec inv_diag = A.diagonal();
  for (double& d : inv_diag) d = (d + shift > 0.0) ? 1.0 / (d + shift) : 1.0;
  Vec r(n), z(n), Ap(n);
  A.multiply(x, Ap);
  if (shift > 0.0) axpy(shift, x, Ap);
  for (size_t i = 0; i < n; ++i) r[i] = b[i] - Ap[i];
  for (size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  Vec p = z;
  double rz = dot(r, z);
  const size_t max_iter =
      opts.max_iterations ? opts.max_iterations : 4 * n + 16;
  const double tol = opts.rel_tolerance * b_norm;
  double r_norm = norm2(r);
  size_t it = 0;
  for (; it < max_iter && r_norm > tol; ++it) {
    A.multiply(p, Ap);
    if (shift > 0.0) axpy(shift, p, Ap);
    const double pAp = dot(p, Ap);
    if (pAp <= 0.0) {
      result.breakdown = true;
      break;
    }
    const double alpha = rz / pAp;
    axpy(alpha, p, x);
    axpy(-alpha, Ap, r);
    for (size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    xpay(z, beta, p);
    r_norm = norm2(r);
  }
  result.iterations = it;
  result.residual_norm = r_norm;
  result.converged = r_norm <= tol;
  return result;
}

TEST(Cg, FusedLoopMatchesSevenPassReferenceBitwise) {
  // Three full reduction blocks and a short fourth one.
  const size_t n = 3 * kReduceChunk + 17;
  const StampStore spd = random_system(n, 41);
  // Indefinite: the same Laplacian with a diagonal of either sign. CG runs
  // a few steps before p·Ap turns non-positive.
  Rng rng(42);
  StampStore indefinite(n);
  for (size_t i = 0; i + 1 < n; ++i)
    indefinite.add_spring(i, i + 1, rng.uniform(0.5, 2.0));
  for (size_t i = 0; i < n; ++i)
    indefinite.add_diag(i, i % 5 == 0 ? -0.9 : 0.2);
  const CsrMatrix A_spd = CsrMatrix::from_stamps(spd);
  const CsrMatrix A_indefinite = CsrMatrix::from_stamps(indefinite);
  Vec b(n), x0(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = rng.uniform(-1.0, 1.0);
    x0[i] = rng.uniform(-5.0, 5.0);
  }

  struct Case {
    const char* name;
    const CsrMatrix* A;
    CgOptions opts;
  };
  const Case cases[] = {
      {"sigma 0", &A_spd, {.rel_tolerance = 1e-10}},
      {"sigma > 0", &A_spd, {.rel_tolerance = 1e-10, .diag_shift = 0.75}},
      {"budget", &A_spd, {.rel_tolerance = 1e-30, .max_iterations = 7}},
      {"breakdown", &A_indefinite, {.rel_tolerance = 1e-12}},
  };
  const size_t prev = global_threads();
  for (const size_t threads : {1, 2, 8}) {
    set_global_threads(threads);
    for (const Case& c : cases) {
      Vec x_ref = x0;
      const CgResult ref = seven_pass_pcg(*c.A, b, x_ref, c.opts);
      CgWorkspace ws;
      Vec x = x0;
      const CgResult got = solve_pcg(*c.A, b, x, c.opts, ws);
      EXPECT_EQ(got.iterations, ref.iterations) << c.name;
      EXPECT_EQ(dbits(got.residual_norm), dbits(ref.residual_norm)) << c.name;
      EXPECT_EQ(got.breakdown, ref.breakdown) << c.name;
      EXPECT_EQ(got.converged, ref.converged) << c.name;
      for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(dbits(x[i]), dbits(x_ref[i]))
            << c.name << ", x[" << i << "], " << threads << " threads";
      if (c.opts.max_iterations > 0)
        EXPECT_EQ(ref.iterations, c.opts.max_iterations) << c.name;
      else if (c.A == &A_indefinite)
        EXPECT_TRUE(ref.breakdown && ref.iterations > 0) << c.name;
      else
        EXPECT_TRUE(ref.converged) << c.name;
    }
  }
  set_global_threads(prev);
}

// ---------------------------------------------------------- CG workspace ----

TEST(CgWorkspace, MatchesPlainOverloadBitwise) {
  const size_t n = 500;
  const CsrMatrix A = CsrMatrix::from_stamps(random_system(n, 25));
  Rng rng(26);
  Vec b(n);
  for (size_t i = 0; i < n; ++i) b[i] = rng.uniform(-1.0, 1.0);
  CgOptions opts;
  opts.rel_tolerance = 1e-10;

  Vec x_plain(n, 0.0);
  const CgResult plain = solve_pcg(A, b, x_plain, opts);
  CgWorkspace ws;
  Vec x_ws(n, 0.0);
  const CgResult with_ws = solve_pcg(A, b, x_ws, opts, ws);
  EXPECT_EQ(plain.iterations, with_ws.iterations);
  EXPECT_EQ(plain.converged, with_ws.converged);
  EXPECT_EQ(dbits(plain.residual_norm), dbits(with_ws.residual_norm));
  for (size_t i = 0; i < n; ++i)
    ASSERT_EQ(dbits(x_plain[i]), dbits(x_ws[i])) << "x[" << i << "]";

  // Leftover state in a reused workspace must not leak into the result.
  Vec x_again(n, 0.0);
  solve_pcg(A, b, x_again, opts, ws);
  for (size_t i = 0; i < n; ++i)
    ASSERT_EQ(dbits(x_again[i]), dbits(x_ws[i])) << "x[" << i << "]";
}

TEST(CgWorkspace, SteadyStateSolveIsAllocationFree) {
  // n > kReduceChunk so the chunked reduction path itself (not its small-n
  // early return) is on trial; single-threaded so the templated serial
  // fast paths of parallel_for/parallel_sum are the ones exercised.
  const size_t prev = global_threads();
  set_global_threads(1);
  const size_t n = kReduceChunk + 1901;
  StampStore t(n);
  for (size_t i = 0; i + 1 < n; ++i) t.add_spring(i, i + 1, 1.0);
  for (size_t i = 0; i < n; ++i) t.add_diag(i, 0.5);
  const CsrMatrix A = CsrMatrix::from_stamps(t);
  const Vec b(n, 1.0);
  CgOptions opts;
  opts.rel_tolerance = 1e-30;  // never met: runs exactly max_iterations
  opts.max_iterations = 25;

  CgWorkspace ws;
  Vec x(n, 0.0);
  solve_pcg(A, b, x, opts, ws);  // warm-up: sizes every workspace buffer
  x.assign(n, 0.0);
  alloc_counter::arm();
  solve_pcg(A, b, x, opts, ws);
  const size_t allocations = alloc_counter::drain();
  EXPECT_EQ(allocations, 0u)
      << "steady-state solve_pcg must not touch the heap";
  set_global_threads(prev);
}

TEST(QpWorkspace, WarmIterationIsAllocationFree) {
  // A whole primal step on a warm workspace: B2B springs, stamping, CSR
  // build and both PCG solves reuse the buffers of the first iteration.
  const size_t prev = global_threads();
  set_global_threads(1);
  const Netlist nl = testing::small_circuit(28, 6000);
  const VarMap vars(nl);
  Placement p = nl.snapshot();
  AnchorSet anchors(nl.num_cells());
  for (CellId id : nl.movable_cells()) {
    anchors.target_x[id] = p.x[id];
    anchors.target_y[id] = p.y[id];
    anchors.weight_x[id] = anchors.weight_y[id] = 0.25;
  }
  QpOptions opts;
  opts.b2b.min_separation = 1.5 * nl.row_height();
  QpWorkspace ws;
  // Warm-up: the B2B topology and spring count follow the iterate, so let
  // the buffers reach their size on the same point the measured call uses.
  Placement warm = p;
  solve_qp_iteration(nl, vars, warm, &anchors, opts, ws);
  alloc_counter::arm();
  solve_qp_iteration(nl, vars, p, &anchors, opts, ws);
  EXPECT_EQ(alloc_counter::drain(), 0u)
      << "a primal step on a warm workspace must not touch the heap";
  set_global_threads(prev);
}

}  // namespace
}  // namespace complx
