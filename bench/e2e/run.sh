#!/usr/bin/env bash
# Builds the placer, its CLIs and bench_e2e from this source tree into
# .bench_build/ at the repository root, then runs bench_e2e:
#
#   bash bench/e2e/run.sh --workload flat-20k --seed 1 --seconds 30 --trace 0
#
# Arguments go to bench_e2e unchanged; its files go to .bench_build/out/
# unless --out says otherwise. Build output goes to stderr, so the last
# line of stdout is bench_e2e's result line.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" --parallel 4 >&2
exec "$build/bench_e2e" --out "$build/out" "$@"
