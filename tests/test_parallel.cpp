// ThreadPool unit tests plus the bitwise-determinism suite: the parallel
// kernels (CG solve, HPWL, density overflow) must produce identical bytes
// at 1, 2, and 8 threads. This is the contract every future perf PR builds
// on — see docs/PARALLELISM.md.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "density/grid.h"
#include "helpers.h"
#include "linalg/cg.h"
#include "linalg/sparse.h"
#include "qp/solver.h"
#include "qp/system_builder.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "wl/hpwl.h"

namespace complx {
namespace {

using testing::expect_vec_bitwise_equal;
using testing::mesh_netlist;
using testing::small_circuit;

/// Restores the default global thread setting when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { set_global_threads(0); }
};

// ------------------------------------------------------------ ThreadPool ----

TEST(ThreadPool, StartupShutdown) {
  // Pools of every size construct, accept work, and join cleanly —
  // including repeatedly and including oversubscription of a small host.
  for (size_t t : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(t);
    EXPECT_EQ(pool.num_threads(), t);
    std::atomic<size_t> count{0};
    pool.parallel_for(100, 7, [&](size_t begin, size_t end) {
      count += end - begin;
    });
    EXPECT_EQ(count.load(), 100u);
  }
  // Idle destruction (no job ever submitted).
  { ThreadPool idle(8); }
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPool, EmptyRange) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, 16, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleElementRange) {
  ThreadPool pool(4);
  std::vector<int> hits(1, 0);
  pool.parallel_for(1, 16, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    ++hits[0];
  });
  EXPECT_EQ(hits[0], 1);
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(8);
  const size_t n = 100000;
  std::vector<std::atomic<int>> visits(n);
  pool.parallel_for(n, 1000, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 1) << i;
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000, 10,
                        [&](size_t begin, size_t) {
                          if (begin >= 500) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must remain usable after a throwing job.
  std::atomic<size_t> count{0};
  pool.parallel_for(64, 8,
                    [&](size_t begin, size_t end) { count += end - begin; });
  EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadPool, NestedCallsAreRejectedToInlineExecution) {
  // A parallel_for issued from inside a parallel region must not deadlock
  // or re-enter the pool: it executes its whole range inline.
  ThreadPool pool(4);
  std::atomic<size_t> inner_total{0};
  pool.parallel_for(8, 1, [&](size_t, size_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    pool.parallel_for(10, 2, [&](size_t begin, size_t end) {
      inner_total += end - begin;
    });
  });
  EXPECT_EQ(inner_total.load(), 80u);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPool, ChunkZeroThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10, 0, [](size_t, size_t) {}),
               std::invalid_argument);
}

// -------------------------------------------------------- global helpers ----

TEST(ParallelHelpers, PartitionRangeDependsOnlyOnSize) {
  const Partition a = partition_range(100000, 1024, 32);
  EXPECT_EQ(a.parts, 32u);
  EXPECT_GE(a.parts * a.chunk, 100000u);
  const Partition b = partition_range(100, 1024, 32);
  EXPECT_EQ(b.parts, 1u);
  const Partition empty = partition_range(0, 1024, 32);
  EXPECT_EQ(empty.parts, 1u);
}

TEST(ParallelHelpers, ParallelSumMatchesChunkedSerial) {
  ThreadGuard guard;
  const size_t n = 3 * kReduceChunk + 123;
  Vec v(n);
  Rng rng(99);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);

  auto chunk_sum = [&](size_t begin, size_t end) {
    double s = 0.0;
    for (size_t i = begin; i < end; ++i) s += v[i];
    return s;
  };
  std::vector<double> sums;
  for (size_t t : {1u, 2u, 8u}) {
    set_global_threads(t);
    sums.push_back(parallel_sum(n, chunk_sum));
  }
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(sums[0], sums[2]);
}

TEST(ParallelHelpers, DotDeterministicAcrossThreadCounts) {
  ThreadGuard guard;
  const size_t n = 5 * kReduceChunk + 7;  // forces the multi-chunk path
  Vec a(n), b(n);
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-10.0, 10.0);
    b[i] = rng.uniform(-10.0, 10.0);
  }
  set_global_threads(1);
  const double d1 = dot(a, b);
  set_global_threads(2);
  const double d2 = dot(a, b);
  set_global_threads(8);
  const double d8 = dot(a, b);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d8);
}

// ------------------------------------------------- kernel determinism -------

/// Builds the x-axis B2B system of a generated circuit — a realistic SPD
/// matrix with ~100k+ entries, big enough to exercise multi-chunk paths.
CsrMatrix placement_system(const Netlist& nl, Vec& rhs) {
  const VarMap vars(nl);
  const Placement snap = nl.snapshot();
  SystemBuilder builder(nl, vars, Axis::X, snap);
  std::vector<PinSpring> springs;
  build_b2b(nl, snap, Axis::X, {}, springs);
  builder.add_pin_springs(springs);
  rhs = builder.rhs();
  return builder.build_matrix();
}

TEST(Determinism, SolvePcgBitwiseAcrossThreads) {
  ThreadGuard guard;
  const Netlist nl = small_circuit(11, 6000);

  Vec x_ref;
  CgResult ref;
  for (size_t t : {1u, 2u, 8u}) {
    set_global_threads(t);
    Vec rhs;
    const CsrMatrix A = placement_system(nl, rhs);
    ASSERT_GT(A.dim(), kReduceChunk) << "design too small to exercise chunks";
    Vec x(A.dim(), 0.0);
    const CgResult res = solve_pcg(A, rhs, x, {});
    EXPECT_TRUE(res.converged);
    if (t == 1) {
      x_ref = x;
      ref = res;
    } else {
      expect_vec_bitwise_equal(x_ref, x, "pcg solution");
      EXPECT_EQ(ref.iterations, res.iterations);
      EXPECT_EQ(ref.residual_norm, res.residual_norm);
    }
  }
}

TEST(Determinism, HpwlBitwiseAcrossThreads) {
  ThreadGuard guard;
  // Generator suite sweep: several seeds/sizes, both plain and weighted.
  for (uint64_t seed : {3u, 17u, 40u}) {
    const Netlist nl = small_circuit(seed, 5000);
    const Placement p = nl.snapshot();
    set_global_threads(1);
    const double h1 = hpwl(nl, p), w1 = weighted_hpwl(nl, p);
    set_global_threads(2);
    const double h2 = hpwl(nl, p), w2 = weighted_hpwl(nl, p);
    set_global_threads(8);
    const double h8 = hpwl(nl, p), w8 = weighted_hpwl(nl, p);
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(h1, h8);
    EXPECT_EQ(w1, w2);
    EXPECT_EQ(w1, w8);
  }
}

TEST(Determinism, DensityOverflowBitwiseAcrossThreads) {
  ThreadGuard guard;
  for (uint64_t seed : {5u, 23u}) {
    const Netlist nl = small_circuit(seed, 6000, /*movable_macros=*/2);
    const Placement p = nl.snapshot();

    std::vector<double> overflow, usage00;
    for (size_t t : {1u, 2u, 8u}) {
      set_global_threads(t);
      DensityGrid grid(nl, 64, 64);
      grid.build(p);
      overflow.push_back(grid.total_overflow(0.9));
      usage00.push_back(grid.usage(3, 5));
    }
    EXPECT_EQ(overflow[0], overflow[1]);
    EXPECT_EQ(overflow[0], overflow[2]);
    EXPECT_EQ(usage00[0], usage00[1]);
    EXPECT_EQ(usage00[0], usage00[2]);
  }
}

TEST(Determinism, SpmvBitwiseAcrossThreads) {
  ThreadGuard guard;
  const Netlist nl = small_circuit(29, 6000);
  Vec rhs;
  const CsrMatrix A = placement_system(nl, rhs);
  Vec x(A.dim());
  Rng rng(1);
  for (double& v : x) v = rng.uniform(-100.0, 100.0);

  set_global_threads(1);
  Vec y1;
  A.multiply(x, y1);
  for (size_t t : {2u, 8u}) {
    set_global_threads(t);
    Vec y;
    A.multiply(x, y);
    expect_vec_bitwise_equal(y1, y, "SpMV result");
  }
}

TEST(Determinism, B2bSpringsIdenticalAcrossThreads) {
  ThreadGuard guard;
  const Netlist nl = small_circuit(31, 8000);
  const Placement p = nl.snapshot();
  set_global_threads(1);
  std::vector<PinSpring> ref, got;
  build_b2b(nl, p, Axis::X, {}, ref);
  for (size_t t : {2u, 8u}) {
    set_global_threads(t);
    build_b2b(nl, p, Axis::X, {}, got);
    ASSERT_EQ(ref.size(), got.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i].p, got[i].p) << i;
      ASSERT_EQ(ref[i].q, got[i].q) << i;
      ASSERT_EQ(ref[i].weight, got[i].weight) << i;
    }
  }
}

TEST(Determinism, QpIterationBitwiseAcrossThreads) {
  ThreadGuard guard;
  const Netlist nl = testing::mesh_netlist(24);
  const VarMap vars(nl);
  QpOptions opts;
  opts.b2b.min_separation = std::max(1.0, nl.average_movable_width());

  set_global_threads(1);
  Placement ref = nl.snapshot();
  QpWorkspace ref_ws;
  solve_qp_iteration(nl, vars, ref, nullptr, opts, ref_ws);
  for (size_t t : {2u, 8u}) {
    set_global_threads(t);
    Placement p = nl.snapshot();
    QpWorkspace ws;
    solve_qp_iteration(nl, vars, p, nullptr, opts, ws);
    testing::expect_placements_bitwise_equal(ref, p);
  }
}

}  // namespace
}  // namespace complx
