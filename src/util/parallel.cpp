#include "util/parallel.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace complx {

namespace {

/// Set while a thread (worker or participating caller) executes chunks of a
/// job. A parallel_for issued from such a thread must not touch the pool.
thread_local bool tl_in_parallel_region = false;

size_t chunk_count(size_t n, size_t chunk) {
  return n == 0 ? 0 : (n + chunk - 1) / chunk;
}

}  // namespace

bool ThreadPool::in_parallel_region() { return tl_in_parallel_region; }

ThreadPool::RegionScope::RegionScope() : prev_(tl_in_parallel_region) {
  tl_in_parallel_region = true;
}

ThreadPool::RegionScope::~RegionScope() { tl_in_parallel_region = prev_; }

ThreadPool::ThreadPool(size_t num_threads)
    : threads_(std::max<size_t>(1, num_threads)) {
  workers_.reserve(threads_ - 1);
  for (size_t t = 0; t + 1 < threads_; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mu_);
      // Explicit wait loop: condition_variable_any::wait(mu_) releases and
      // reacquires the annotated Mutex, and the guarded reads stay inside
      // this scope where the analysis can see the capability.
      while (!stop_ && generation_ == seen) work_cv_.wait(mu_);
      if (stop_) return;
      seen = generation_;
      job = job_;
      // Registered under the lock so the caller cannot destroy the job
      // while this worker still holds a pointer to it.
      if (job) ++job->active;
    }
    if (job) {
      run_chunks(*job);
      MutexLock lock(mu_);
      if (--job->active == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_chunks(Job& job) {
  tl_in_parallel_region = true;
  size_t c;
  while ((c = job.next.fetch_add(1, std::memory_order_relaxed)) <
         job.num_chunks) {
    const size_t begin = c * job.chunk;
    const size_t end = std::min(job.n, begin + job.chunk);
    try {
      (*job.body)(begin, end);
    } catch (...) {
      MutexLock lock(job.error_mu);
      if (!job.error) job.error = std::current_exception();
    }
    job.completed.fetch_add(1, std::memory_order_acq_rel);
  }
  tl_in_parallel_region = false;
}

void ThreadPool::run_inline(size_t n, size_t chunk,
                            const std::function<void(size_t, size_t)>& body) {
  // Same chunk boundaries as the parallel path, visited in order — the
  // execution mode never changes what gets computed.
  const bool nested = tl_in_parallel_region;
  tl_in_parallel_region = true;
  try {
    for (size_t begin = 0; begin < n; begin += chunk)
      body(begin, std::min(n, begin + chunk));
  } catch (...) {
    tl_in_parallel_region = nested;
    throw;
  }
  tl_in_parallel_region = nested;
}

void ThreadPool::parallel_for(size_t n, size_t chunk,
                              const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (chunk == 0) throw std::invalid_argument("parallel_for: chunk must be > 0");
  // Nested parallelism is rejected: inner regions execute inline on the
  // issuing thread (identical results — chunking is unchanged).
  if (threads_ == 1 || tl_in_parallel_region || chunk_count(n, chunk) == 1) {
    run_inline(n, chunk, body);
    return;
  }

  Job job;
  job.body = &body;
  job.n = n;
  job.chunk = chunk;
  job.num_chunks = chunk_count(n, chunk);
  {
    MutexLock lock(mu_);
    job_ = &job;
    ++generation_;
  }
  work_cv_.notify_all();

  // The caller is a worker too.
  run_chunks(job);

  {
    // Wait until every chunk ran AND every worker let go of the job — the
    // Job lives on this stack frame.
    MutexLock lock(mu_);
    job_ = nullptr;  // late wakers must not pick the job up anymore
    while (job.active != 0 ||
           job.completed.load(std::memory_order_acquire) != job.num_chunks)
      done_cv_.wait(mu_);
  }
  // Copy the error pointer out under its own lock: every worker that could
  // write it has detached above, but the discipline (and the analysis)
  // want the guarded read locked regardless.
  std::exception_ptr error;
  {
    MutexLock lock(job.error_mu);
    error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

// ---------------------------------------------------------------------------
// Global pool.
// ---------------------------------------------------------------------------

namespace {
size_t g_threads = 0;  // 0 = unset (hardware default)
std::unique_ptr<ThreadPool> g_pool;
}  // namespace

size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void set_global_threads(size_t n) {
  const size_t resolved = n == 0 ? hardware_threads() : n;
  if (g_pool && g_pool->num_threads() == resolved) return;
  g_pool.reset();  // join old workers before spawning the new pool
  g_threads = resolved;
}

size_t global_threads() {
  return g_threads == 0 ? hardware_threads() : g_threads;
}

ThreadPool& global_pool() {
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(global_threads());
  return *g_pool;
}

// ---------------------------------------------------------------------------
// Deterministic helpers.
// ---------------------------------------------------------------------------

Partition partition_range(size_t n, size_t min_chunk, size_t max_parts) {
  Partition part;
  if (n == 0) return part;
  const size_t wanted = chunk_count(n, std::max<size_t>(1, min_chunk));
  part.parts = std::clamp<size_t>(wanted, 1, std::max<size_t>(1, max_parts));
  part.chunk = (n + part.parts - 1) / part.parts;
  return part;
}

namespace detail {

size_t default_chunk(size_t n) {
  return std::max<size_t>(256, n / (4 * global_threads()) + 1);
}

void pool_for(size_t n, size_t chunk,
              const std::function<void(size_t, size_t)>& body) {
  global_pool().parallel_for(n, chunk, body);
}

double pool_sum(size_t n,
                const std::function<double(size_t, size_t)>& chunk_sum) {
  const size_t parts = chunk_count(n, kReduceChunk);
  std::vector<double> partials(parts, 0.0);
  global_pool().parallel_for(n, kReduceChunk,
                             [&](size_t begin, size_t end) {
                               partials[begin / kReduceChunk] =
                                   chunk_sum(begin, end);
                             });
  double s = 0.0;
  for (double v : partials) s += v;  // fixed order: chunk 0, 1, 2, ...
  return s;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// vec.h backends.
// ---------------------------------------------------------------------------

double par_dot(const std::vector<double>& a, const std::vector<double>& b) {
  return parallel_sum(a.size(), [&](size_t begin, size_t end) {
    double s = 0.0;
    for (size_t i = begin; i < end; ++i) s += a[i] * b[i];
    return s;
  });
}

void par_axpy(double alpha, const std::vector<double>& x,
              std::vector<double>& y) {
  parallel_for(x.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) y[i] += alpha * x[i];
  });
}

void par_xpay(const std::vector<double>& y, double alpha,
              std::vector<double>& x) {
  parallel_for(x.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) x[i] = alpha * x[i] + y[i];
  });
}

}  // namespace complx
