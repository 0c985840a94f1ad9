// Fixture tests for complx-lint: every rule must fire on a minimal
// offending snippet, stay quiet on the compliant rewrite, and honour the
// allow(...) suppression syntax (which itself demands a justification).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.h"

namespace complx::lint {
namespace {

std::vector<std::string> rules_fired(const std::string& path,
                                     const std::string& src) {
  std::vector<std::string> out;
  for (const Finding& f : lint_source(path, src)) out.push_back(f.rule);
  return out;
}

bool fired(const std::string& path, const std::string& src,
           const std::string& rule) {
  const auto rules = rules_fired(path, src);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

// ------------------------------------------------------------------ D1 ----

TEST(LintD1, FiresOnRangeForOverUnorderedMap) {
  EXPECT_TRUE(fired("src/x.cpp",
                    "#include <unordered_map>\n"
                    "double f(const std::unordered_map<int,double>& m) {\n"
                    "  double s = 0.0;\n"
                    "  for (const auto& [k, v] : m) s += v;\n"
                    "  return s;\n"
                    "}\n",
                    "D1"));
}

TEST(LintD1, FiresOnExplicitBeginIterator) {
  EXPECT_TRUE(fired("src/x.cpp",
                    "std::unordered_set<int> seen;\n"
                    "void g() { auto it = seen.begin(); (void)it; }\n",
                    "D1"));
}

TEST(LintD1, FiresOnMemberContainerInRangeFor) {
  EXPECT_TRUE(fired("src/x.cpp",
                    "struct S { std::unordered_map<int,int> index_; };\n"
                    "void h(S& s) { for (auto& kv : s.index_) (void)kv; }\n",
                    "D1"));
}

TEST(LintD1, QuietOnLookupOnlyUse) {
  EXPECT_FALSE(fired("src/x.cpp",
                     "std::unordered_map<std::string,int> idx;\n"
                     "int find(const std::string& k) {\n"
                     "  auto it = idx.find(k);\n"
                     "  return it == idx.end() ? -1 : it->second;\n"
                     "}\n",
                     "D1"));
}

TEST(LintD1, QuietOnOrderedContainers) {
  EXPECT_FALSE(fired("src/x.cpp",
                     "std::map<int,int> m;\n"
                     "void f() { for (auto& kv : m) (void)kv; }\n",
                     "D1"));
}

// ------------------------------------------------------------------ D2 ----

TEST(LintD2, FiresOnRandAndSrand) {
  EXPECT_TRUE(fired("src/x.cpp", "int f() { return std::rand(); }\n", "D2"));
  EXPECT_TRUE(fired("src/x.cpp", "void g() { srand(42); }\n", "D2"));
}

TEST(LintD2, FiresOnRandomDeviceOutsideRngHeader) {
  const std::string src = "std::random_device rd;\n";
  EXPECT_TRUE(fired("src/x.cpp", src, "D2"));
  EXPECT_FALSE(fired("src/util/rng.h", src, "D2"));  // the seeded authority
}

TEST(LintD2, FiresOnWallClockAndThreadId) {
  EXPECT_TRUE(fired("src/x.cpp", "long t = time(nullptr);\n", "D2"));
  EXPECT_TRUE(
      fired("src/x.cpp",
            "auto id = std::this_thread::get_id();\n", "D2"));
}

TEST(LintD2, QuietOnMemberNamedTimeAndComments) {
  EXPECT_FALSE(fired("src/x.cpp", "double s = timer.time();\n", "D2"));
  EXPECT_FALSE(fired("src/x.cpp", "// never call rand() here\n", "D2"));
  EXPECT_FALSE(fired("src/x.cpp", "const char* s = \"rand(\";\n", "D2"));
}

// ------------------------------------------------------------------ N1 ----

TEST(LintN1, FiresOnFloatLiteralComparison) {
  EXPECT_TRUE(fired("src/x.cpp", "bool b = x == 0.0;\n", "N1"));
  EXPECT_TRUE(fired("src/x.cpp", "bool b = 1e-9 != y;\n", "N1"));
}

TEST(LintN1, FiresOnDeclaredDoubleVariable) {
  EXPECT_TRUE(fired("src/x.cpp",
                    "bool f(double gap, int k) { return gap == k; }\n",
                    "N1"));
}

TEST(LintN1, QuietOnIntegerAndPointerComparison) {
  EXPECT_FALSE(fired("src/x.cpp", "bool b = n == 0;\n", "N1"));
  EXPECT_FALSE(fired("src/x.cpp", "bool b = ptr != nullptr;\n", "N1"));
  EXPECT_FALSE(fired("src/x.cpp", "bool b = it == v.end();\n", "N1"));
}

TEST(LintN1, QuietInsideComparatorHeader) {
  EXPECT_FALSE(
      fired("src/util/fpcmp.h", "bool eq(double a, double b) { return a == b; }\n",
            "N1"));
}

// ------------------------------------------------------------------ N2 ----

TEST(LintN2, FiresOnSilentCatchAllInNumericalModule) {
  const std::string src =
      "void f() { try { g(); } catch (...) { } }\n";
  EXPECT_TRUE(fired("src/core/x.cpp", src, "N2"));
  EXPECT_TRUE(fired("src/linalg/x.cpp", src, "N2"));
  EXPECT_TRUE(fired("src/qp/x.cpp", src, "N2"));
}

TEST(LintN2, QuietWhenHandled) {
  EXPECT_FALSE(fired("src/core/x.cpp",
                     "void f() { try { g(); } catch (...) {\n"
                     "  log_error(\"solve failed\"); } }\n",
                     "N2"));
  EXPECT_FALSE(fired("src/core/x.cpp",
                     "void f() { try { g(); } catch (...) {\n"
                     "  status = Status::Failed; } }\n",
                     "N2"));
  EXPECT_FALSE(fired("src/core/x.cpp",
                     "void f() { try { g(); } catch (...) { throw; } }\n",
                     "N2"));
}

TEST(LintN2, QuietOutsideNumericalModules) {
  EXPECT_FALSE(fired("src/util/x.cpp",
                     "void f() { try { g(); } catch (...) { } }\n", "N2"));
}

// ------------------------------------------------------------------ P1 ----

TEST(LintP1, FiresOnMutexAtomicThread) {
  EXPECT_TRUE(fired("src/x.cpp", "std::mutex m;\n", "P1"));
  EXPECT_TRUE(fired("src/x.cpp", "std::atomic<int> n{0};\n", "P1"));
  EXPECT_TRUE(fired("src/x.cpp", "std::thread t(work);\n", "P1"));
  EXPECT_TRUE(
      fired("src/x.cpp", "x.load(std::memory_order_acquire);\n", "P1"));
}

TEST(LintP1, QuietInsideParallelAuthority) {
  const std::string src = "std::mutex m; std::atomic<int> n{0};\n";
  EXPECT_FALSE(fired("src/util/parallel.h", src, "P1"));
  EXPECT_FALSE(fired("src/util/parallel.cpp", src, "P1"));
}

// ----------------------------------------------------------------- IO1 ----

TEST(LintIO1, FiresOnDirectWritePrimitivesInSrc) {
  EXPECT_TRUE(fired("src/x.cpp", "std::ofstream out(path);\n", "IO1"));
  EXPECT_TRUE(fired("src/x.cpp", "FILE* f = std::fopen(p, \"w\");\n", "IO1"));
  EXPECT_TRUE(fired("src/x.cpp", "std::fwrite(buf, 1, n, f);\n", "IO1"));
  EXPECT_TRUE(fired("src/x.cpp", "freopen(p, \"w\", stdout);\n", "IO1"));
}

TEST(LintIO1, QuietOnReadsAndInsideWriteAuthority) {
  EXPECT_FALSE(fired("src/x.cpp", "std::ifstream in(path);\n", "IO1"));
  EXPECT_FALSE(fired("src/x.cpp", "std::fread(buf, 1, n, f);\n", "IO1"));
  EXPECT_FALSE(
      fired("src/util/atomic_file.cpp", "int fd = ::open(tmp, f);\n", "IO1"));
}

TEST(LintIO1, QuietOutsideSrcTree) {
  // Apps/tests/benches may stream directly (stderr diagnostics, fixtures);
  // the crash-safety contract binds the library.
  EXPECT_FALSE(fired("apps/x.cpp", "std::ofstream out(path);\n", "IO1"));
  EXPECT_FALSE(fired("tests/x.cpp", "std::fopen(p, \"w\");\n", "IO1"));
}

TEST(LintIO1, QuietOnTokenInCommentOrString) {
  EXPECT_FALSE(fired("src/x.cpp", "// ofstream is banned here\n", "IO1"));
  EXPECT_FALSE(
      fired("src/x.cpp", "const char* s = \"fopen\";\n", "IO1"));
}

// ------------------------------------------------------------------ S1 ----

TEST(LintS1, FiresOnNameAccessInHotLayers) {
  for (const char* dir : {"src/core/x.cpp", "src/linalg/x.cpp",
                          "src/qp/x.cpp", "src/density/x.cpp",
                          "src/projection/x.cpp"}) {
    EXPECT_TRUE(fired(dir, "auto n = nl.cell_name(id);\n", "S1")) << dir;
  }
  EXPECT_TRUE(fired("src/qp/x.cpp", "auto n = nl.net_name(e);\n", "S1"));
  EXPECT_TRUE(fired("src/core/x.cpp", "nl.find_cell(\"a\");\n", "S1"));
  EXPECT_TRUE(fired("src/density/x.h", "NamePool pool;\n", "S1"));
}

TEST(LintS1, QuietAtTheIoAndAppBoundary) {
  const std::string src = "auto n = nl.cell_name(id);\n";
  EXPECT_FALSE(fired("src/io/svg.cpp", src, "S1"));
  EXPECT_FALSE(fired("src/legal/tetris.cpp", src, "S1"));
  EXPECT_FALSE(fired("src/bookshelf/writer.cpp", src, "S1"));
  EXPECT_FALSE(fired("src/netlist/netlist.cpp", src, "S1"));
  EXPECT_FALSE(fired("apps/complx_eval.cpp", src, "S1"));
}

TEST(LintS1, QuietOnTokenInCommentOrString) {
  EXPECT_FALSE(
      fired("src/core/x.cpp", "// cell_name is banned here\n", "S1"));
  EXPECT_FALSE(
      fired("src/qp/x.cpp", "const char* s = \"find_cell\";\n", "S1"));
}

TEST(LintS1, SuppressionWithJustificationHolds) {
  EXPECT_FALSE(fired("src/core/x.cpp",
                     "// complx-lint: allow(S1): debug dump behind a flag\n"
                     "auto n = nl.cell_name(id);\n",
                     "S1"));
}

// ------------------------------------------------------------------ P2 ----

TEST(LintP2, FiresOnUnannotatedMutexInSrc) {
  EXPECT_TRUE(fired("src/foo/cache.h",
                    "class Cache {\n"
                    "  Mutex mu_;\n"
                    "  int hits_ = 0;\n"
                    "};\n",
                    "P2"));
}

TEST(LintP2, QuietWhenNamedInAnnotationArgument) {
  EXPECT_FALSE(fired("src/foo/cache.h",
                     "class Cache {\n"
                     "  Mutex mu_;\n"
                     "  int hits_ COMPLX_GUARDED_BY(mu_) = 0;\n"
                     "};\n",
                     "P2"));
}

TEST(LintP2, QuietInsideCapabilityClass) {
  // The annotated wrapper type itself holds a raw std::mutex; the
  // COMPLX_CAPABILITY annotation on the enclosing class is the discipline.
  EXPECT_FALSE(fired("src/util/parallel.h",
                     "class COMPLX_CAPABILITY(\"mutex\") Mutex {\n"
                     " public:\n"
                     "  void lock();\n"
                     " private:\n"
                     "  std::mutex m_;\n"
                     "};\n",
                     "P2"));
}

TEST(LintP2, QuietOutsideSrcTree) {
  EXPECT_FALSE(fired("tools/x.cpp", "Mutex mu_;\n", "P2"));
  EXPECT_FALSE(fired("tests/x.cpp", "Mutex mu_;\n", "P2"));
}

// --------------------------------------------------------- suppressions ----

TEST(LintSuppress, SameLineAllowWithJustification) {
  const auto rules = rules_fired(
      "src/x.cpp",
      "std::atomic<int> n{0};  // complx-lint: allow(P1): counter for a "
      "non-numeric cache\n");
  EXPECT_TRUE(rules.empty());
}

TEST(LintSuppress, LineAboveAllow) {
  const auto rules = rules_fired(
      "src/x.cpp",
      "// complx-lint: allow(D1): dump order irrelevant, debug-only path\n"
      "std::unordered_map<int,int> m;\n"
      "void f() { for (auto& kv : m) (void)kv; }\n");
  // Suppression covers the declaration line, not the iteration two lines
  // below — the loop must still be reported.
  EXPECT_EQ(rules, std::vector<std::string>{"D1"});
}

TEST(LintSuppress, MultiLineCommentBlockReachesCode) {
  const auto rules = rules_fired(
      "src/x.cpp",
      "// complx-lint: allow(P1): the SIGINT flag must be async-signal-safe\n"
      "// and a mutex would be undefined behaviour inside the handler.\n"
      "std::atomic<bool> stop{false};\n");
  EXPECT_TRUE(rules.empty());
}

TEST(LintSuppress, OnlyNamedRuleIsSuppressed) {
  EXPECT_TRUE(fired(
      "src/x.cpp",
      "std::mutex m;  // complx-lint: allow(D1): wrong rule id on purpose\n",
      "P1"));
}

TEST(LintSuppress, BareAllowIsItselfAFinding) {
  const auto rules = rules_fired(
      "src/x.cpp", "std::atomic<int> n{0};  // complx-lint: allow(P1)\n");
  EXPECT_EQ(rules, std::vector<std::string>{"SUPP"});
}

TEST(LintSuppress, AllowWithoutRuleListIsItselfAFinding) {
  // A justification alone does not make a suppression: with no rule ids the
  // directive suppresses nothing and is reported as SUPP, so the original
  // finding fires too.
  const auto rules = rules_fired(
      "src/x.cpp",
      "std::atomic<int> n{0};  // complx-lint: allow(): counters are fine\n");
  EXPECT_EQ(rules, (std::vector<std::string>{"P1", "SUPP"}));
}

TEST(LintSuppress, BlockCommentAllowWithJustification) {
  const auto rules = rules_fired(
      "src/x.cpp",
      "std::atomic<int> n{0};  /* complx-lint: allow(P1): counter for a "
      "non-numeric cache */\n");
  EXPECT_TRUE(rules.empty());
}

TEST(LintSuppress, MultipleRulesInOneAllow) {
  const auto rules = rules_fired(
      "src/x.cpp",
      "// complx-lint: allow(P1, N1): test double for the scheduler seam\n"
      "bool f(std::atomic<double>& x, double y) { return x == y; }\n");
  EXPECT_TRUE(rules.empty());
}

// ------------------------------------------------------------ reporting ----

TEST(LintReport, FindingsCarryFileLineAndSortedOrder) {
  const auto findings = lint_source("src/x.cpp",
                                    "std::atomic<int> a{0};\n"
                                    "\n"
                                    "std::atomic<int> b{0};\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/x.cpp");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[1].line, 3u);
  EXPECT_EQ(findings[0].rule, "P1");
  EXPECT_FALSE(findings[0].message.empty());
}

TEST(LintReport, RuleCatalogIsExactlyTheRuleSet) {
  // The catalog is the single source of truth: --list-rules prints it, the
  // SARIF rules array is generated from it, and docs/STATIC_ANALYSIS.md
  // documents it. Every id the analyzer can emit must be present, and
  // nothing else.
  std::vector<std::string> ids;
  for (const auto& r : rule_catalog()) {
    ids.push_back(r.id);
    EXPECT_FALSE(std::string(r.summary).empty()) << r.id;
  }
  const std::vector<std::string> want = {"A1", "A2", "D1",  "D2",   "IO1",
                                         "N1", "N2", "P1",  "P2",   "S1",
                                         "T1", "SUPP", "IO"};
  auto sorted_ids = ids;
  auto sorted_want = want;
  std::sort(sorted_ids.begin(), sorted_ids.end());
  std::sort(sorted_want.begin(), sorted_want.end());
  EXPECT_EQ(sorted_ids, sorted_want);
}

TEST(LintReport, UnreadableFileYieldsIoFinding) {
  const auto findings = analyze_paths({"/nonexistent_dir_xyz/f.cpp"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "/nonexistent_dir_xyz/f.cpp");
  EXPECT_EQ(findings[0].rule, "IO");
}

// ---------------------------------------------------- cross-file passes ----

// A three-layer miniature of tools/complx_lint/layers.toml.
const char* const kLayers =
    "[[layer]]\n"
    "name = \"util\"\n"
    "rank = 1\n"
    "dirs = [\"src/util\"]\n"
    "\n"
    "[[layer]]\n"
    "name = \"model\"\n"
    "rank = 2\n"
    "dirs = [\"src/netlist\"]\n"
    "\n"
    "[[layer]]\n"
    "name = \"core\"\n"
    "rank = 3\n"
    "dirs = [\"src/core\"]\n";

std::vector<Finding> analyze(const std::vector<SourceFile>& files) {
  AnalyzeOptions opts;
  opts.layers_toml = kLayers;
  return analyze_sources(files, opts);
}

bool any_rule(const std::vector<Finding>& findings, const std::string& rule,
              const std::string& file = "") {
  for (const Finding& f : findings)
    if (f.rule == rule && (file.empty() || f.file == file)) return true;
  return false;
}

TEST(LintA1, FiresOnUpwardInclude) {
  const auto findings = analyze(
      {{"src/util/geom.h", "#include \"netlist/netlist.h\"\n"}});
  ASSERT_TRUE(any_rule(findings, "A1", "src/util/geom.h"));
  EXPECT_EQ(findings[0].line, 1u);
}

TEST(LintA1, QuietOnDownwardAndSameLayerIncludes) {
  const auto findings = analyze(
      {{"src/core/placer.h",
        "#include \"util/log.h\"\n#include \"core/health.h\"\n"},
       {"src/netlist/netlist.h", "#include \"util/log.h\"\n"}});
  EXPECT_FALSE(any_rule(findings, "A1"));
}

TEST(LintA1, QuietOnUnmappedFiles) {
  // Tests and tools sit outside the declared DAG: A1 does not constrain
  // them (A2 still does).
  const auto findings = analyze(
      {{"tests/test_x.cpp", "#include \"core/placer.h\"\n"}});
  EXPECT_FALSE(any_rule(findings, "A1"));
}

TEST(LintA1, LineAboveAllowSuppresses) {
  const auto findings = analyze(
      {{"src/util/geom.h",
        "// complx-lint: allow(A1): transitional shim, tracked for removal\n"
        "#include \"netlist/netlist.h\"\n"}});
  EXPECT_FALSE(any_rule(findings, "A1"));
}

TEST(LintA2, FiresOnIncludeCycle) {
  const auto findings = analyze(
      {{"src/util/a.h", "#include \"util/b.h\"\n"},
       {"src/util/b.h", "#include \"util/a.h\"\n"}});
  EXPECT_TRUE(any_rule(findings, "A2"));
}

TEST(LintA2, QuietOnAcyclicIncludes) {
  const auto findings = analyze(
      {{"src/util/a.h", "#include \"util/b.h\"\n"},
       {"src/util/b.h", "int b();\n"}});
  EXPECT_FALSE(any_rule(findings, "A2"));
}

TEST(LintT1, CatchesLaunderedEntropyAcrossFiles) {
  // The laundering scenario D2 cannot see: the entropy call sits in util/
  // (D2 fires there, on that file), a second util/ function wraps it, and
  // a core entry function calls the wrapper. Per-file scanning of the core
  // file shows nothing; the taint pass must walk the chain.
  const std::vector<SourceFile> files = {
      {"src/util/noise.cpp",
       "double noise() { return static_cast<double>(std::rand()); }\n"},
      {"src/util/wrap.cpp", "double wrap() { return noise() * 0.5; }\n"},
      {"src/core/solver.cpp", "double step() { return wrap() + 1.0; }\n"}};
  const auto findings = analyze(files);
  EXPECT_TRUE(any_rule(findings, "T1", "src/core/solver.cpp"));
  // D2 fires where the source is, never on the laundered entry point.
  EXPECT_TRUE(any_rule(findings, "D2", "src/util/noise.cpp"));
  EXPECT_FALSE(any_rule(findings, "D2", "src/core/solver.cpp"));
}

TEST(LintT1, AllowD2SourceStillSeedsTaint) {
  // A locally justified allow(D2) silences the per-file finding but must
  // not launder the taint: core still may not reach the source.
  const auto findings = analyze(
      {{"src/util/noise.cpp",
        "// complx-lint: allow(D2): jitter probe, never in solver paths\n"
        "double noise() { return static_cast<double>(std::rand()); }\n"},
       {"src/core/solver.cpp", "double step() { return noise(); }\n"}});
  EXPECT_FALSE(any_rule(findings, "D2"));
  EXPECT_TRUE(any_rule(findings, "T1", "src/core/solver.cpp"));
}

TEST(LintT1, TaintSourceAnnotationSeeds) {
  // `// complx-lint: taint-source` marks functions whose nondeterminism a
  // token scan cannot recognise (e.g. wall-clock reads behind a syscall
  // wrapper).
  const auto findings = analyze(
      {{"src/util/sys.cpp",
        "// complx-lint: taint-source\n"
        "double wall_seconds() { return os_clock_read(); }\n"},
       {"src/core/solver.cpp",
        "double budget() { return wall_seconds() * 2.0; }\n"}});
  EXPECT_TRUE(any_rule(findings, "T1", "src/core/solver.cpp"));
}

TEST(LintT1, QuietOutsideEntryScopes) {
  // Only core/linalg/qp/projection entry points are constrained; io/ or
  // apps/ reaching a source is not a T1 violation.
  const auto findings = analyze(
      {{"src/util/noise.cpp",
        "double noise() { return static_cast<double>(std::rand()); }\n"},
       {"src/io/report.cpp", "double stamp() { return noise(); }\n"}});
  EXPECT_FALSE(any_rule(findings, "T1"));
}

TEST(LintT1, DirectSourceIsD2NotT1) {
  // A direct call to a source inside core is D2's finding; T1 only reports
  // reachability through at least one intermediate call.
  const auto findings =
      analyze({{"src/core/solver.cpp",
                "double step() { return static_cast<double>(std::rand()); }\n"}});
  EXPECT_TRUE(any_rule(findings, "D2", "src/core/solver.cpp"));
  EXPECT_FALSE(any_rule(findings, "T1"));
}

TEST(LintT1, LineAboveAllowSuppressesEntryFunction) {
  const auto findings = analyze(
      {{"src/util/noise.cpp",
        "double noise() { return static_cast<double>(std::rand()); }\n"},
       {"src/core/solver.cpp",
        "// complx-lint: allow(T1): perf probe, stripped from release builds\n"
        "double step() { return noise(); }\n"}});
  EXPECT_FALSE(any_rule(findings, "T1"));
}

TEST(LintAnalyze, MalformedLayersTomlYieldsIoFinding) {
  AnalyzeOptions opts;
  opts.layers_toml = "[[layer]]\nname = \"util\"\nrank = banana\n";
  const auto findings =
      analyze_sources({{"src/util/a.h", "int a();\n"}}, opts);
  EXPECT_TRUE(any_rule(findings, "IO"));
}

}  // namespace
}  // namespace complx::lint
