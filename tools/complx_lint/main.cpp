// complx-lint CLI: scan files/directories and report rule findings.
//
//   complx_lint [options] PATH...
//
// Directories are walked recursively for *.h *.hpp *.cpp *.cc *.cxx.
// Report files (--json/--sarif) are written atomically (temp + rename) so
// an interrupted run never leaves a torn report a later CI step parses.
// Exit codes: 0 clean, 1 findings, 2 usage error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"
#include "report.h"
#include "util/atomic_file.h"
#include "util/parallel.h"
#include "util/parse_num.h"

namespace fs = std::filesystem;
using complx::lint::Finding;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc" ||
         ext == ".cxx";
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] PATH...\n"
      "  PATH            file, or directory walked recursively for "
      "*.h *.hpp *.cpp *.cc *.cxx\n"
      "  --json FILE     write findings as JSON, atomically (use '-' for "
      "stdout)\n"
      "  --sarif FILE    write findings as SARIF 2.1.0, atomically ('-' for "
      "stdout)\n"
      "  --layers FILE   layer declaration for the A1/A2 include passes\n"
      "                  (default: tools/complx_lint/layers.toml under the\n"
      "                  first PATH's repo, when present; --layers none "
      "disables)\n"
      "  --cache FILE    incremental cache (content-hash keyed, written "
      "atomically)\n"
      "  --no-taint      skip the cross-file T1 determinism-taint pass\n"
      "  --threads N     worker threads for the per-file pass\n"
      "  --stats         print files/cache-hit/timing/thread summary to "
      "stderr\n"
      "  --quiet         summary line only\n"
      "  --list-rules    print the rule catalog and exit\n",
      argv0);
  return 2;
}

/// Looks for tools/complx_lint/layers.toml at `root` and each parent, so
/// `complx_lint src apps` run from the repo root (or a subdir) finds the
/// committed declaration without flags.
std::string default_layers_file(const std::string& first_root) {
  std::error_code ec;
  fs::path dir = fs::absolute(first_root, ec);
  if (ec) return "";
  if (!fs::is_directory(dir, ec) || ec) dir = dir.parent_path();
  for (int up = 0; up < 8 && !dir.empty(); ++up) {
    const fs::path cand = dir / "tools" / "complx_lint" / "layers.toml";
    if (fs::exists(cand, ec) && !ec) return cand.generic_string();
    const fs::path parent = dir.parent_path();
    if (parent == dir) break;
    dir = parent;
  }
  return "";
}

bool write_report(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return true;
  }
  try {
    complx::AtomicWriteOptions opts;
    opts.fsync = false;  // CI reports are re-derivable; rename atomicity
                         // is what protects the downstream parse
    complx::write_file_atomic(path, content, opts);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "complx-lint: cannot write %s: %s\n", path.c_str(),
                 e.what());
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string json_path, sarif_path, layers_path, cache_path;
  bool quiet = false, stats_out = false, taint = true;
  bool layers_explicit = false;
  std::size_t threads = 0;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const auto& r : complx::lint::rule_catalog())
        std::printf("%-5s %s\n", r.id, r.summary);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--stats") {
      stats_out = true;
    } else if (arg == "--no-taint") {
      taint = false;
    } else if (arg == "--json") {
      const char* v = need_value(i);
      if (!v) return usage(argv[0]);
      json_path = v;
    } else if (arg == "--sarif") {
      const char* v = need_value(i);
      if (!v) return usage(argv[0]);
      sarif_path = v;
    } else if (arg == "--layers") {
      const char* v = need_value(i);
      if (!v) return usage(argv[0]);
      layers_path = v;
      layers_explicit = true;
    } else if (arg == "--cache") {
      const char* v = need_value(i);
      if (!v) return usage(argv[0]);
      cache_path = v;
    } else if (arg == "--threads") {
      const char* v = need_value(i);
      if (!v) return usage(argv[0]);
      try {
        threads = complx::parse_uint64("--threads", v, 0, 65536);
      } catch (const complx::ParseError& e) {
        std::fprintf(stderr, "complx-lint: %s\n", e.what());
        return usage(argv[0]);
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "complx-lint: unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) return usage(argv[0]);

  // Collect the file set, sorted so output order never depends on the
  // directory-entry order the OS happens to return.
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && lintable(it->path()))
          files.push_back(it->path().generic_string());
      }
    } else if (fs::exists(root, ec)) {
      files.push_back(root);
    } else {
      std::fprintf(stderr, "complx-lint: no such path: %s\n", root.c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  complx::lint::AnalyzeOptions opts;
  opts.taint = taint;
  opts.cache_path = cache_path;
  opts.threads = threads;
  if (!layers_explicit) layers_path = default_layers_file(roots.front());
  if (!layers_path.empty() && layers_path != "none") {
    std::ifstream in(layers_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "complx-lint: cannot read layers file %s\n",
                   layers_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    opts.layers_toml = buf.str();
  }

  complx::lint::AnalyzeStats stats;
  const std::vector<Finding> all =
      complx::lint::analyze_paths(files, opts, &stats);

  std::map<std::string, size_t> per_rule;
  for (const Finding& f : all) {
    ++per_rule[f.rule];
    if (!quiet)
      std::printf("%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                  f.rule.c_str(), f.message.c_str());
  }

  if (!json_path.empty() &&
      !write_report(json_path, complx::lint::render_json(files.size(), all)))
    return 2;
  if (!sarif_path.empty() &&
      !write_report(sarif_path, complx::lint::render_sarif(all)))
    return 2;

  if (stats_out) {
    std::fprintf(stderr,
                 "complx-lint: stats files=%zu cache_hits=%zu "
                 "cache_misses=%zu analyze_ms=%.2f threads=%zu\n",
                 stats.files, stats.cache_hits, stats.cache_misses,
                 stats.analyze_s * 1e3, complx::global_threads());
  }

  std::string breakdown;
  for (const auto& [rule, count] : per_rule)
    breakdown += " " + rule + "=" + std::to_string(count);
  std::printf("complx-lint: scanned %zu files, %zu finding%s%s%s\n",
              files.size(), all.size(), all.size() == 1 ? "" : "s",
              per_rule.empty() ? "" : " —", breakdown.c_str());
  return all.empty() ? 0 : 1;
}
