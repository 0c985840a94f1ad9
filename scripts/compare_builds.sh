#!/usr/bin/env bash
# Checks that two builds place the same designs to the same bytes: the
# "same placements" check for changes that must leave every placement
# bitwise unchanged. Both builds run the same jobs and their outputs are
# compared with cmp:
#   * complx_fleet --preset gate and --preset smoke (--no-timing JSON), and
#     --preset gate --no-dp;
#   * complx_fleet --preset gate --warm-start, each build on its own copy of
#     one store seeded by a cold --save-experience gate fleet of <base-build>;
#   * complx_place .pl files on a generated 6k-cell design with two macros:
#     flat, multilevel (--ml-threshold 0), a partial --eco-window, a flat
#     --warm-start hit on a store seeded by <base-build>'s flat run, the
#     LSE/NLCG primal step with orientation (--lse --orient, whose --svg
#     rendering is compared too), the SimPL schedule (--simpl) and no
#     detailed placement (--no-dp);
#   * complx_place's stdout for the flat, ml, warm, lse and --no-dp jobs,
#     with the `N.Ns` wall times and the work-directory paths masked;
#   * the stdout of every example: quickstart, region_constraints,
#     mixed_size_soc, and routability_driven and timing_driven, the
#     end-to-end users of RUDY, cell inflation, the global router and STA
#     (all print only deterministic metrics).
#
# Usage: scripts/compare_builds.sh <base-build> <cand-build>
#   <base-build>, <cand-build>: CMake build trees holding apps/complx_fleet,
#   apps/complx_gen, apps/complx_place and the five examples/. Passing one
#   tree twice checks that its outputs are reproducible run to run.
# Exit code 0 iff every output matches; otherwise 1, naming the first file
# that differs (or the job that did not do what it should). The outputs go
# to a temporary directory, removed on success and kept on failure.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <base-build> <cand-build>" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
cand=$(cd "$2" && pwd)
work=$(mktemp -d)

fail() {
  echo "compare_builds: $*" >&2
  exit 1
}

examples="quickstart region_constraints mixed_size_soc routability_driven
          timing_driven"
for b in "$base" "$cand"; do
  for app in apps/complx_fleet apps/complx_gen apps/complx_place; do
    [ -x "$b/$app" ] || fail "missing $b/$app"
  done
  for ex in $examples; do
    [ -x "$b/examples/$ex" ] || fail "missing $b/examples/$ex"
  done
done

# Runs one app of build $1 ("base" or "cand"): stdout to $work/$1/$2.log,
# stderr to $work/$1/$2.err.
run() {
  local side=$1 log=$2 app=$3; shift 3
  local dir
  if [ "$side" = base ]; then dir=$base; else dir=$cand; fi
  "$dir/apps/$app" "$@" > "$work/$side/$log.log" 2> "$work/$side/$log.err" ||
    fail "$side: $app $* failed (log: $work/$side/$log.log, .err)"
}

# Runs example $2 of build $1 like run(). Its temporary files
# (mixed_size_soc's Bookshelf export) go under $work/$1.
run_example() {
  local side=$1 ex=$2
  local dir
  if [ "$side" = base ]; then dir=$base; else dir=$cand; fi
  TMPDIR="$work/$side" "$dir/examples/$ex" > "$work/$side/$ex.log" \
    2> "$work/$side/$ex.err" ||
    fail "$side: examples/$ex failed (log: $work/$side/$ex.log, .err)"
}

# Writes $work/$1/$2.log to $work/$1/$2.stdout with the wall times (`1.5s`)
# and the side's work directory masked, the only parts that may differ.
mask() {
  local side=$1 log=$2
  sed -E -e "s#$work/$side#<work>#g" -e 's/[0-9]+\.[0-9]s\b/N.Ns/g' \
    "$work/$side/$log.log" > "$work/$side/$log.stdout"
}

mkdir -p "$work/base" "$work/cand" "$work/seed"

# Seeds: one cold gate fleet store, one generated design and its flat-run
# store, all from the base build.
"$base/apps/complx_fleet" --preset gate --no-timing --quiet \
  --snapshot "$work/seed/fleet.snap" --save-experience \
  --out "$work/seed/fleet.json" > "$work/seed/fleet.log" 2>&1 ||
  fail "seeding the gate fleet store failed"
"$base/apps/complx_gen" --cells 6000 --seed 9 --macros 2 --name d6k \
  --out "$work/seed" > "$work/seed/gen.log" 2>&1 ||
  fail "generating the 6k design failed"
design=$work/seed/d6k.aux
"$base/apps/complx_place" "$design" --quiet --out "$work/seed/flat.pl" \
  --snapshot "$work/seed/place.snap" --save-experience \
  > "$work/seed/place.log" 2>&1 || fail "seeding the placement store failed"

for side in base cand; do
  out=$work/$side
  cp "$work/seed/fleet.snap" "$out/fleet.snap"
  cp "$work/seed/place.snap" "$out/place.snap"
  run "$side" gate complx_fleet --preset gate --no-timing --quiet \
    --out "$out/gate.json"
  run "$side" smoke complx_fleet --preset smoke --no-timing --quiet \
    --out "$out/smoke.json"
  run "$side" gate_warm complx_fleet --preset gate --no-timing --quiet \
    --snapshot "$out/fleet.snap" --warm-start --out "$out/gate_warm.json"
  run "$side" gate_nodp complx_fleet --preset gate --no-timing --quiet \
    --no-dp --out "$out/gate_nodp.json"
  run "$side" flat complx_place "$design" --quiet --out "$out/flat.pl"
  run "$side" ml complx_place "$design" --quiet --ml-threshold 0 \
    --out "$out/ml.pl"
  run "$side" eco complx_place "$design" --quiet \
    --eco-window 300,300,700,700 --out "$out/eco.pl"
  run "$side" warm complx_place "$design" --quiet \
    --snapshot "$out/place.snap" --warm-start --out "$out/warm.pl"
  run "$side" lse complx_place "$design" --quiet --lse --orient \
    --svg "$out/lse.svg" --out "$out/lse.pl"
  run "$side" simpl complx_place "$design" --quiet --simpl \
    --out "$out/simpl.pl"
  run "$side" nodp complx_place "$design" --quiet --no-dp \
    --out "$out/nodp.pl"
  for ex in $examples; do run_example "$side" "$ex"; done
  for log in flat ml warm lse nodp $examples; do mask "$side" "$log"; done

  # A job that silently fell back to another path would compare equal and
  # prove nothing.
  grep -q '^multilevel:' "$out/ml.log" || fail "$side: ml run stayed flat"
  grep -Eq '^eco: [1-9][0-9]* dirty / [1-9][0-9]* frozen movables$' \
    "$out/eco.log" || fail "$side: eco window was not partial"
  grep -q 'warm start' "$out/warm.log" || fail "$side: warm run missed"
  grep -q '"warm_started": true' "$out/gate_warm.json" ||
    fail "$side: warm gate fleet resumed no design"
  grep -q '^orientation: [1-9]' "$out/lse.log" ||
    fail "$side: lse run flipped no cell"
  grep -q '^detailed placement:' "$out/nodp.log" &&
    fail "$side: --no-dp run ran detailed placement"
  grep -q '^detailed placement:' "$out/flat.log" ||
    fail "$side: flat run skipped detailed placement"
done

for f in gate.json smoke.json gate_warm.json gate_nodp.json flat.pl ml.pl \
         eco.pl warm.pl lse.pl lse.svg simpl.pl nodp.pl flat.stdout \
         ml.stdout warm.stdout lse.stdout nodp.stdout \
         $(for ex in $examples; do echo "$ex.stdout"; done); do
  cmp -s "$work/base/$f" "$work/cand/$f" ||
    fail "$f differs ($work/base/$f vs $work/cand/$f)"
done
rm -rf "$work"
echo "compare_builds: all outputs identical"
