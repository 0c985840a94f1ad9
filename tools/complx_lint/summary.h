// Per-file analysis summary — the repo model the cross-file passes run on.
//
// summarize_source() distills one translation unit into everything the
// analyzer will ever need again: the per-file findings (already
// suppression-filtered), the #include edges (with their suppression
// state, for A1/A2), and the function-level call-graph fragment (for the
// T1 determinism-taint pass). The cross-file passes run on the set of
// summaries, never on the sources.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint.h"

namespace complx::lint {

/// One `#include "..."` directive (angle includes carry no layer
/// information here and are ignored).
struct IncludeEdge {
  std::string target;  ///< the include string, e.g. "density/grid.h"
  std::size_t line = 0;
  bool allow_a1 = false;  ///< an allow(A1) suppression covers this line
  bool allow_a2 = false;
};

/// One function definition: the call-graph node T1 propagates over.
struct FunctionSummary {
  std::string name;  ///< last identifier before '(' (unqualified)
  std::size_t line = 0;
  /// Non-empty when the body directly contains a D2 nondeterminism source
  /// or the function carries a `// complx-lint: taint-source` annotation;
  /// holds the offending token (e.g. "time()") for the finding message.
  std::string source_token;
  bool allow_t1 = false;  ///< an allow(T1) suppression covers the definition
  std::vector<std::string> callees;  ///< names called from the body, sorted
};

struct FileSummary {
  std::string path;  ///< normalized ('/'-separated)
  std::vector<Finding> findings;  ///< per-file rules, suppression-filtered
  std::vector<IncludeEdge> includes;
  std::vector<FunctionSummary> functions;
};

/// Runs the per-file rules and extracts the cross-file model for one file.
FileSummary summarize_source(const std::string& path,
                             const std::string& content);

}  // namespace complx::lint
