// Deterministic parallel execution for the primal/projection hot paths.
//
// Design goals, in priority order:
//  1. Bitwise reproducibility independent of thread count. Every parallel
//     reduction is computed over a *fixed* partition of the index range
//     (chunk boundaries depend only on the problem size, never on the
//     thread count), and per-chunk partial results are combined in chunk
//     order. Threads only decide *who* computes a chunk, never *what* is
//     summed with what — so `--threads 1/2/8` produce identical bytes.
//  2. No surprises for existing code: ranges small enough to fit a single
//     chunk reduce exactly like the historical serial loops, and a pool of
//     one thread executes everything inline on the caller.
//  3. Simplicity over peak throughput: static block partitioning with a
//     shared chunk counter, one job in flight at a time, caller
//     participates in the work.
//
// Nested parallel regions are rejected by construction: a parallel_for
// issued from inside another parallel region (worker or caller thread)
// executes its whole range inline on the issuing thread. This keeps the
// pool deadlock-free and keeps determinism trivial to reason about.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attributes (no-ops on other compilers).
//
// The CI clang job compiles with -Wthread-safety -Werror, turning the
// locking discipline declared by these annotations into a build-time
// proof: every COMPLX_GUARDED_BY member must be touched with its mutex
// held, every COMPLX_REQUIRES function must be called with the capability
// held. complx-lint rule P2 closes the loop from the other side — every
// mutex declared in src/ must participate in this scheme.
// ---------------------------------------------------------------------------

#if defined(__clang__) && (!defined(SWIG))
#define COMPLX_TSA(x) __attribute__((x))
#else
#define COMPLX_TSA(x)  // no-op off clang
#endif

#define COMPLX_CAPABILITY(x) COMPLX_TSA(capability(x))
#define COMPLX_SCOPED_CAPABILITY COMPLX_TSA(scoped_lockable)
#define COMPLX_GUARDED_BY(x) COMPLX_TSA(guarded_by(x))
#define COMPLX_PT_GUARDED_BY(x) COMPLX_TSA(pt_guarded_by(x))
#define COMPLX_REQUIRES(...) COMPLX_TSA(requires_capability(__VA_ARGS__))
#define COMPLX_ACQUIRE(...) COMPLX_TSA(acquire_capability(__VA_ARGS__))
#define COMPLX_RELEASE(...) COMPLX_TSA(release_capability(__VA_ARGS__))
#define COMPLX_TRY_ACQUIRE(...) \
  COMPLX_TSA(try_acquire_capability(__VA_ARGS__))
#define COMPLX_EXCLUDES(...) COMPLX_TSA(locks_excluded(__VA_ARGS__))
#define COMPLX_ASSERT_CAPABILITY(x) COMPLX_TSA(assert_capability(x))
#define COMPLX_RETURN_CAPABILITY(x) COMPLX_TSA(lock_returned(x))
#define COMPLX_NO_TSA COMPLX_TSA(no_thread_safety_analysis)

namespace complx {

/// Annotated mutex — the only mutex type the rest of the library may
/// declare (complx-lint rule P1 bans raw std::mutex outside this header,
/// and rule P2 requires every instance to be wired into the annotation
/// scheme). Wraps std::mutex because the standard library's is invisible
/// to clang's analysis. Satisfies BasicLockable, so it works with
/// std::condition_variable_any directly.
class COMPLX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() COMPLX_ACQUIRE() { mu_.lock(); }
  void unlock() COMPLX_RELEASE() { mu_.unlock(); }
  bool try_lock() COMPLX_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock for Mutex (std::lock_guard is as unannotated as std::mutex).
class COMPLX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) COMPLX_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() COMPLX_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Fixed-size worker pool executing one static-partitioned loop at a time.
/// `num_threads` counts the calling thread: a pool of N spawns N−1 workers,
/// and a pool of 1 spawns none (all calls run inline — today's behavior).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_; }

  /// Runs body(chunk_begin, chunk_end) over [0, n) split into blocks of
  /// `chunk` indices (the last block may be short). Chunk boundaries depend
  /// only on (n, chunk), so any value written or summed per chunk is
  /// independent of the thread count. Blocks are claimed dynamically but
  /// the caller participates and the call returns only when every block
  /// has run. The first exception thrown by `body` is rethrown here.
  void parallel_for(size_t n, size_t chunk,
                    const std::function<void(size_t, size_t)>& body);

  /// True while the current thread is executing inside a parallel region
  /// (worker chunk or caller participation). Used to reject nesting.
  static bool in_parallel_region();

  /// RAII marker that flags the current thread as "inside a parallel
  /// region" for its lifetime. The header-inline serial fast paths below
  /// use it so nested parallel calls issued from their bodies keep running
  /// inline, exactly as they would under run_inline.
  class RegionScope {
   public:
    RegionScope();
    ~RegionScope();
    RegionScope(const RegionScope&) = delete;
    RegionScope& operator=(const RegionScope&) = delete;

   private:
    bool prev_;
  };

 private:
  struct Job {
    const std::function<void(size_t, size_t)>* body = nullptr;
    size_t n = 0;
    size_t chunk = 0;
    size_t num_chunks = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    size_t active = 0;  ///< workers currently attached (guarded by pool mu_;
                        ///< a nested struct cannot name the outer member in
                        ///< a GUARDED_BY argument)
    Mutex error_mu;
    std::exception_ptr error COMPLX_GUARDED_BY(error_mu);
  };

  void worker_loop();
  void run_chunks(Job& job);
  void run_inline(size_t n, size_t chunk,
                  const std::function<void(size_t, size_t)>& body);

  size_t threads_;
  std::vector<std::thread> workers_;
  Mutex mu_;
  /// _any variants: they wait on the annotated Mutex directly. The waits
  /// are explicit while-loops rather than predicate lambdas — clang's
  /// analysis does not propagate held capabilities into lambda bodies.
  std::condition_variable_any work_cv_;  ///< workers wait for a new job
  std::condition_variable_any done_cv_;  ///< caller waits for job completion
  Job* job_ COMPLX_GUARDED_BY(mu_) = nullptr;
  uint64_t generation_ COMPLX_GUARDED_BY(mu_) = 0;
  bool stop_ COMPLX_GUARDED_BY(mu_) = false;
};

/// std::thread::hardware_concurrency with a floor of 1.
size_t hardware_threads();

/// Sets the process-wide thread count used by the parallel kernels.
/// 0 restores the default (hardware concurrency). Not thread-safe: call
/// from the main thread before starting parallel work.
void set_global_threads(size_t n);

/// Current process-wide thread count (never 0).
size_t global_threads();

/// The shared pool all parallel kernels run on (created lazily).
ThreadPool& global_pool();

// ---------------------------------------------------------------------------
// Process-wide cooperative cancellation (SIGINT).
//
// One flag for the whole process: the placer polls it at iteration
// boundaries, finish_placement() before detailed placement, DetailedPlacer
// between moves and complx_fleet between designs. Control flow only — no
// value the numeric kernels read depends on it.
// ---------------------------------------------------------------------------

/// Raises (true) or clears (false) the cancel flag.
void set_cancel_requested(bool raised);

/// Whether the cancel flag is raised.
bool cancel_requested();

/// Installs a SIGINT handler: the first ^C raises the cancel flag and
/// restores SIG_DFL, so a second ^C kills the process the default way.
void cancel_on_sigint();

// ---------------------------------------------------------------------------
// Deterministic helpers over the global pool.
// ---------------------------------------------------------------------------

/// Fixed reduction chunk: ranges up to this size reduce exactly like the
/// historical serial loops (single chunk). Never derive chunking from the
/// thread count — that is what keeps results bitwise thread-independent.
inline constexpr size_t kReduceChunk = 4096;

/// Partition [0, n) into equal blocks: at least `min_chunk` indices per
/// block, at most `max_parts` blocks. Depends only on n — used by kernels
/// that keep one scratch buffer per block (density/RUDY partial grids).
struct Partition {
  size_t parts = 1;
  size_t chunk = 0;  ///< indices per block (last block may be short)
};
Partition partition_range(size_t n, size_t min_chunk, size_t max_parts);

namespace detail {

/// Chunk size used when the caller passed 0: ~4 blocks per thread for load
/// balance, floored so per-chunk overhead stays negligible. Execution-only
/// choice — callers' writes must be index-owned, never order-dependent.
size_t default_chunk(size_t n);

/// Type-erased multi-thread backends behind the template front-ends below.
/// Only reached when the work actually fans out to pool workers; the
/// single-thread / nested / single-chunk cases run inline in the templates
/// without constructing a std::function (and therefore without
/// allocating — solve_pcg's steady state relies on this).
void pool_for(size_t n, size_t chunk,
              const std::function<void(size_t, size_t)>& body);
double pool_sum(size_t n,
                const std::function<double(size_t, size_t)>& chunk_sum);

}  // namespace detail

/// parallel_for over [0, n) on the global pool; body(begin, end) must only
/// write locations owned by its indices. `chunk` 0 picks a size aimed at
/// ~4 blocks per thread (execution-only choice — safe because the body's
/// writes are index-owned, not order-dependent).
template <typename Body>
void parallel_for(size_t n, const Body& body, size_t chunk = 0) {
  if (n == 0) return;
  if (chunk == 0) chunk = detail::default_chunk(n);
  if (global_threads() == 1 || ThreadPool::in_parallel_region() ||
      n <= chunk) {
    // Same chunk boundaries as the pool path, visited in order (mirrors
    // ThreadPool::run_inline), with no type erasure and no allocation.
    ThreadPool::RegionScope region;
    for (size_t begin = 0; begin < n; begin += chunk)
      body(begin, begin + chunk < n ? begin + chunk : n);
    return;
  }
  detail::pool_for(n, chunk, body);
}

/// Deterministic sum: chunk_sum(begin, end) is evaluated per kReduceChunk
/// block and the partials are added in block order. Bitwise independent of
/// the thread count; equal to the serial loop whenever n <= kReduceChunk.
template <typename ChunkSum>
double parallel_sum(size_t n, const ChunkSum& chunk_sum) {
  if (n == 0) return 0.0;
  if (n <= kReduceChunk) return chunk_sum(0, n);
  if (global_threads() == 1 || ThreadPool::in_parallel_region()) {
    // Partials accumulated in chunk order — the same addition sequence the
    // pool path produces, without the partials buffer.
    ThreadPool::RegionScope region;
    double s = 0.0;
    for (size_t begin = 0; begin < n; begin += kReduceChunk)
      s += chunk_sum(begin,
                     begin + kReduceChunk < n ? begin + kReduceChunk : n);
    return s;
  }
  return detail::pool_sum(n, chunk_sum);
}

// ---------------------------------------------------------------------------
// Parallel backends for the vec.h reductions (deterministic chunking).
// vec.h wraps these behind a small-size fast path; declared on raw
// std::vector<double> here so util does not depend on linalg headers.
// ---------------------------------------------------------------------------

/// dot(a, b) with deterministic fixed-chunk reduction.
double par_dot(const std::vector<double>& a, const std::vector<double>& b);

/// y += alpha * x, element-parallel (bitwise identical to the serial loop).
void par_axpy(double alpha, const std::vector<double>& x,
              std::vector<double>& y);

/// x = alpha * x + y, element-parallel (bitwise identical to serial).
void par_xpay(const std::vector<double>& y, double alpha,
              std::vector<double>& x);

}  // namespace complx
