// Measurement plumbing for bench_e2e: child processes timed with wait4
// rusage, order statistics, process peak-RSS probes, an in-memory span
// tracer, and a small JSON writer.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bench {

/// Monotonic wall clock in seconds.
double now_s();

/// One finished child process.
struct ProcResult {
  int exit_code = -1;      ///< exit status, or 128 + signal number
  double wall_s = 0.0;     ///< spawn to reap
  double cpu_s = 0.0;      ///< user + system time of the child
  double sys_s = 0.0;      ///< system time of the child
  double maxrss_mb = 0.0;  ///< ru_maxrss of the child
};

/// Starts the benchmarked processes from a helper process that is forked
/// when the Spawner is constructed. A child inherits its parent's peak RSS
/// into its own ru_maxrss at exec, so children started straight from the
/// harness, which by then holds inputs and traced runs, would report the
/// harness's peak instead of their own. The helper is forked before the
/// harness allocates anything large and stays a few MB, like a shell.
/// Construct one first thing in main(), before any thread is started.
class Spawner {
 public:
  Spawner();
  /// Closes the request pipe, on which the helper exits, and reaps it.
  ~Spawner();
  Spawner(const Spawner&) = delete;
  Spawner& operator=(const Spawner&) = delete;

  /// Starts argv[0] with posix_spawn, its stdout and stderr sent to
  /// `log_path`, and waits for it with wait4.
  ProcResult run(const std::vector<std::string>& argv,
                 const std::string& log_path);

 private:
  int helper_ = -1;  ///< pid
  int to_helper_ = -1;
  int from_helper_ = -1;
};

/// Median and quartiles of a sample. The quartiles follow Python's
/// statistics.quantiles(data, n=4) (the "exclusive" method).
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  size_t n = 0;
};
Summary summarize(std::vector<double> values);

/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Restarts the kernel's peak-RSS (VmHWM) counter of this process. Returns
/// false where the kernel refuses; peak_rss_mb() then reports the peak since
/// process start.
bool reset_peak_rss();
/// Peak resident set of this process since the last reset, in MB.
double peak_rss_mb();

/// One timed region. Spans nest: `parent` is the index of the enclosing
/// span, or -1 for the root.
struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  double peak_rss_mb = -1.0;  ///< sampled for top-level spans only

  double duration_s() const { return end_s - start_s; }
};

/// Keeps every span in memory until the run ends. Children of the root span
/// are "top-level": the peak-RSS counter is reset before each one opens and
/// sampled when it closes. Single-threaded by design: the harness opens
/// spans only around calls it makes itself.
class Tracer {
 public:
  Tracer();

  size_t open(std::string name);
  void close(size_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of all spans with this name.
  double total_s(std::string_view name) const;
  /// Summed self time (duration minus the time covered by child spans)
  /// per span name, in first-seen order.
  std::vector<std::pair<std::string, double>> self_time_by_name() const;
  /// Summed duration of the root's children over the root's duration.
  double top_level_coverage() const;

 private:
  double origin_;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

/// Runs `f` inside a span named `name` and returns its result.
template <class F>
auto traced(Tracer& tracer, std::string name, F&& f) {
  struct Close {
    Tracer& t;
    size_t id;
    ~Close() { t.close(id); }
  } close{tracer, tracer.open(std::move(name))};
  return f();
}

/// Minimal streaming JSON writer: objects, arrays, strings and numbers,
/// with commas placed automatically. Numbers print with 17 significant
/// digits so a value reads back exactly.
class Json {
 public:
  Json& begin_object();
  Json& end_object();
  Json& begin_array();
  Json& end_array();
  Json& key(std::string_view k);
  Json& value(double v);
  Json& value(std::string_view s);
  Json& value(bool b);
  Json& value(size_t v);
  template <class T>
  Json& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }
  Json& field(std::string_view k, const char* v) {
    return field(k, std::string_view(v));
  }
  const std::string& str() const { return out_; }

 private:
  void separate();
  std::string out_;
  std::vector<bool> first_;  ///< per open container: no element written yet
  bool after_key_ = false;
};

/// Reads a whole file; throws std::runtime_error if it cannot be opened.
std::string read_file(const std::string& path);
/// Writes a whole file; throws std::runtime_error on failure.
void write_file(const std::string& path, const std::string& text);

}  // namespace bench
