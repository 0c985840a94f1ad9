#include "harness.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace bench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}

bool write_all(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

ProcResult spawn_and_wait(const std::vector<std::string>& argv,
                          const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv)
    args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);

  ProcResult r;
  const double t0 = now_s();
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    std::fprintf(stderr, "bench_e2e: cannot start %s: %s\n", args[0],
                 std::strerror(rc));
    return r;
  }
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      std::fprintf(stderr, "bench_e2e: wait4: %s\n", std::strerror(errno));
      return r;
    }
  }
  r.wall_s = now_s() - t0;
  r.exit_code = WIFEXITED(status)     ? WEXITSTATUS(status)
                : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                      : -1;
  r.sys_s = seconds(ru.ru_stime);
  r.cpu_s = seconds(ru.ru_utime) + r.sys_s;
  r.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return r;
}

/// The helper's loop. A request is a string count, then each string as a
/// length and its bytes: argv followed by the log path. The reply is the
/// ProcResult's bytes. End of input ends the helper.
[[noreturn]] void serve(int in, int out) {
  for (;;) {
    uint32_t count = 0;
    if (!read_all(in, &count, sizeof count) || count < 2) _exit(0);
    std::vector<std::string> strings(count);
    for (std::string& str : strings) {
      uint32_t len = 0;
      if (!read_all(in, &len, sizeof len)) _exit(1);
      str.resize(len);
      if (len > 0 && !read_all(in, str.data(), len)) _exit(1);
    }
    const std::string log_path = std::move(strings.back());
    strings.pop_back();
    const ProcResult r = spawn_and_wait(strings, log_path);
    if (!write_all(out, &r, sizeof r)) _exit(1);
  }
}

}  // namespace

Spawner::Spawner() {
  int request[2], reply[2];
  if (pipe2(request, O_CLOEXEC) != 0 || pipe2(reply, O_CLOEXEC) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  helper_ = fork();
  if (helper_ < 0)
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (helper_ == 0) {
    close(request[1]);
    close(reply[0]);
    serve(request[0], reply[1]);
  }
  close(request[0]);
  close(reply[1]);
  to_helper_ = request[1];
  from_helper_ = reply[0];
}

Spawner::~Spawner() {
  close(to_helper_);
  close(from_helper_);
  int status = 0;
  while (waitpid(helper_, &status, 0) < 0 && errno == EINTR) {
  }
}

ProcResult Spawner::run(const std::vector<std::string>& argv,
                        const std::string& log_path) {
  std::string request;
  auto put = [&](uint32_t v) {
    request.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(static_cast<uint32_t>(argv.size() + 1));
  for (const std::string& str : argv) {
    put(static_cast<uint32_t>(str.size()));
    request += str;
  }
  put(static_cast<uint32_t>(log_path.size()));
  request += log_path;
  ProcResult r;
  if (!write_all(to_helper_, request.data(), request.size()) ||
      !read_all(from_helper_, &r, sizeof r)) {
    std::fprintf(stderr, "bench_e2e: lost the spawn helper\n");
    return ProcResult{};
  }
  return r;
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  s.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  // statistics.quantiles(v, n=4), method="exclusive".
  const size_t m = n + 1;
  auto quartile = [&](size_t i) {
    size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

bool reset_peak_rss() {
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f))
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Tracer::Tracer() : origin_(now_s()) {}

size_t Tracer::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
  if (stack_.size() == 1) reset_peak_rss();
  s.start_s = now_s() - origin_;
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(size_t id) {
  Span& s = spans_[id];
  s.end_s = now_s() - origin_;
  stack_.pop_back();
  if (stack_.size() == 1) s.peak_rss_mb = peak_rss_mb();
}

double Tracer::total_s(std::string_view name) const {
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) t += s.duration_s();
  return t;
}

std::vector<std::pair<std::string, double>> Tracer::self_time_by_name() const {
  // Children of one span run one after another, so the part of a span they
  // cover is the sum of their durations.
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration_s();
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.duration_s();

  std::vector<std::pair<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& e) {
      return e.first == spans_[i].name;
    });
    if (it == out.end())
      out.emplace_back(spans_[i].name, self[i]);
    else
      it->second += self[i];
  }
  return out;
}

double Tracer::top_level_coverage() const {
  if (spans_.empty() || spans_[0].duration_s() <= 0.0) return 0.0;
  double covered = 0.0;
  for (const Span& s : spans_)
    if (s.parent == 0) covered += s.duration_s();
  return covered / spans_[0].duration_s();
}

void Json::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ", ";
    first_.back() = false;
  }
}

Json& Json::begin_object() {
  separate();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

Json& Json::begin_array() {
  separate();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

Json& Json::key(std::string_view k) {
  value(k);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

Json& Json::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  return *this;
}

Json& Json::value(size_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

Json& Json::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

Json& Json::value(std::string_view s) {
  separate();
  out_ += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

}  // namespace bench
