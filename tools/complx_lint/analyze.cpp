// analyze_sources / analyze_paths: the multi-pass orchestration, one serial
// pass over the file set.
//
//   1. per-file pass — summarize_source() on each file in input order;
//   2. cross-file passes — A1/A2 layering against layers.toml and the T1
//      determinism taint, over the whole set of summaries.
//
// Findings sort by (file, line, rule) so reports are byte-stable.
#include <algorithm>
#include <fstream>
#include <sstream>

#include "layers.h"
#include "lint.h"
#include "summary.h"
#include "taint.h"

namespace complx::lint {

namespace {

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

}  // namespace

std::vector<Finding> analyze_sources(const std::vector<SourceFile>& files,
                                     const AnalyzeOptions& opts) {
  std::vector<FileSummary> summaries;
  summaries.reserve(files.size());
  std::vector<Finding> findings;
  for (const SourceFile& f : files) {
    summaries.push_back(summarize_source(f.path, f.content));
    const std::vector<Finding>& own = summaries.back().findings;
    findings.insert(findings.end(), own.begin(), own.end());
  }

  if (!opts.layers_toml.empty()) {
    LayerMap map;
    std::string error;
    std::size_t error_line = 0;
    if (!parse_layers_toml(opts.layers_toml, map, error, error_line)) {
      findings.push_back({"layers.toml", error_line, "IO",
                          "cannot parse layer declaration: " + error});
    } else {
      check_layers(summaries, map, findings);
    }
  }
  check_taint(summaries, findings);

  sort_findings(findings);
  return findings;
}

std::vector<Finding> analyze_paths(const std::vector<std::string>& paths,
                                   const AnalyzeOptions& opts) {
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  std::vector<Finding> unreadable;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::string norm = path;
      std::replace(norm.begin(), norm.end(), '\\', '/');
      unreadable.push_back({norm, 0, "IO", "cannot read file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back({path, buf.str()});
  }

  std::vector<Finding> findings = analyze_sources(files, opts);
  findings.insert(findings.end(), unreadable.begin(), unreadable.end());
  sort_findings(findings);
  return findings;
}

}  // namespace complx::lint
