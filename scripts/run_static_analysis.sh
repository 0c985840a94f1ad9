#!/usr/bin/env bash
# Full static-analysis sweep: complx-lint (always), clang-tidy and cppcheck
# (when installed — both are skipped gracefully so the script is useful on
# minimal containers and strict in CI, which installs them).
#
#   scripts/run_static_analysis.sh [build-dir]
#
# Exits nonzero iff any tool that actually ran reported a problem. A
# machine-readable summary is printed last:
#   static-analysis: complx_lint=pass clang_tidy=skip cppcheck=skip
set -u
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

status_lint=skip status_tidy=skip status_cppcheck=skip
fail=0

# --- 1. complx-lint (built from tools/complx_lint, needs the build tree) ---
LINT_BIN="$BUILD_DIR/tools/complx_lint/complx_lint"
if [ ! -x "$LINT_BIN" ]; then
  echo "== building complx_lint =="
  cmake -B "$BUILD_DIR" -S . >/dev/null && \
    cmake --build "$BUILD_DIR" --target complx_lint -j >/dev/null
fi
if [ -x "$LINT_BIN" ]; then
  echo "== complx-lint =="
  # Both report formats: JSON for humans and scripts, SARIF 2.1.0 for the
  # code-scanning upload.
  if "$LINT_BIN" --json "$BUILD_DIR/complx_lint.json" \
       --sarif "$BUILD_DIR/complx_lint.sarif" src apps; then
    status_lint=pass
  else
    status_lint=fail; fail=1
  fi
else
  echo "error: could not build complx_lint" >&2
  status_lint=fail; fail=1
fi

# --- 2. clang-tidy over the library sources (needs compile_commands.json) --
if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    cmake -B "$BUILD_DIR" -S . >/dev/null
  fi
  echo "== clang-tidy =="
  mapfile -t sources < <(git ls-files 'src/**/*.cpp' 'apps/*.cpp')
  if clang-tidy -p "$BUILD_DIR" --quiet "${sources[@]}" \
       > "$BUILD_DIR/clang_tidy.log" 2>/dev/null; then
    status_tidy=pass
  else
    status_tidy=fail; fail=1
  fi
  grep -E "warning:|error:" "$BUILD_DIR/clang_tidy.log" | head -50 || true
else
  echo "== clang-tidy not installed — skipped =="
fi

# --- 3. cppcheck (optional) ------------------------------------------------
if command -v cppcheck >/dev/null 2>&1; then
  echo "== cppcheck =="
  if cppcheck --enable=warning,performance,portability --inline-suppr \
       --error-exitcode=1 --quiet --suppress=missingIncludeSystem \
       -I src src apps 2> "$BUILD_DIR/cppcheck.log"; then
    status_cppcheck=pass
  else
    status_cppcheck=fail; fail=1
  fi
  cat "$BUILD_DIR/cppcheck.log"
else
  echo "== cppcheck not installed — skipped =="
fi

echo "static-analysis: complx_lint=$status_lint clang_tidy=$status_tidy cppcheck=$status_cppcheck"
exit "$fail"
