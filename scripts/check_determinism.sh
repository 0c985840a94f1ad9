#!/usr/bin/env bash
# Builds two trees and runs the determinism test label on each:
#   1. a ThreadSanitizer tree  — proves the parallel kernels are race-free
#      (a data race would void the bitwise-reproducibility argument), and
#   2. a release (RelWithDebInfo) tree — proves the bitwise guarantees hold
#      under the optimization level users actually run.
#
# The label includes the projection-path regressions in
# test_golden_determinism: concurrent per-region spreading must be bitwise
# thread-invariant, and the boundary-mote ownership fix (exclusive
# first-region-wins assignment) is what makes the per-region mote lists
# disjoint — under TSan, a reintroduced double-enrollment would surface as
# a data race between two regions spreading the same mote.
#
# Usage: scripts/check_determinism.sh [build-root]
# Exit code 0 iff both trees pass `ctest -L determinism`.
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_root=${1:-"$repo_root/build-determinism"}
jobs=$(nproc 2>/dev/null || echo 2)

run_tree() {
  local name=$1; shift
  local dir="$build_root/$name"
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S "$repo_root" "$@" >/dev/null
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs" --target \
    complx test_parallel test_golden_determinism test_health test_linalg \
    test_eco test_qp test_bookshelf complx_gen complx_place complx_fleet \
    >/dev/null
  echo "=== [$name] ctest -L determinism ==="
  ctest --test-dir "$dir" -L determinism --output-on-failure
}

run_tree tsan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCOMPLX_SANITIZE=thread

run_tree release \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCOMPLX_SANITIZE=

echo "determinism check: OK (tsan + release)"
