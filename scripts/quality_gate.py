#!/usr/bin/env python3
"""Paired statistical quality gate for the known-optimum benchmark fleet.

Consumes fleet runs written by `complx_fleet` (src/gen/fleet.h) and decides
whether a candidate build's placement quality regressed relative to a
baseline, chess-engine-SPRT style:

  * Both runs place the SAME seeded designs (pairable by design name), so
    per-design suboptimality-ratio differences d_i = ratio_cand - ratio_base
    are paired samples with no between-design variance.
  * Differences within a relative tolerance EPS are ties and are dropped
    (the placer is bitwise deterministic, so a no-op change yields all ties).
  * The signs of the remaining differences feed Wald's SPRT for a Bernoulli
    proportion: H0: P(worse) = 0.5 (no systematic regression) versus
    H1: P(worse) = P1 (systematic regression; default 0.9), with error
    budgets ALPHA (false reject when there is no regression, default 0.05)
    and BETA (missed regression, default 0.10).

      LLR = n_worse * ln(P1/0.5) + n_better * ln((1-P1)/0.5)
      reject (regression)  when LLR >= ln((1-BETA)/ALPHA)
      accept (no worse)    when LLR <= ln(BETA/(1-ALPHA))
      inconclusive         otherwise (add designs/seeds and rerun)

  * An all-ties comparison accepts: identical quality is not a regression.
  * A candidate with more illegal placements than the baseline rejects
    unconditionally — an illegal record voids its ratio >= 1 certificate.
  * A candidate in which any design stops "diverged" or "rollback-cycle"
    while the baseline's run of that design did not rejects
    unconditionally: the sign test counts which run is better, not by how
    much, so a few designs blowing up to several times their ratio would
    otherwise pass among many small gains.
  * A candidate whose geomean ratio exceeds the baseline's by more than
    MAX_GEOMEAN_REGRESSION (relative) rejects unconditionally, for the
    same reason: many small losses can outweigh a few larger gains in
    magnitude while the sign test, counting only signs, still accepts.

Subcommands:
  compare  --baseline a.json --candidate b.json   (exit 0 accept,
           1 reject, 2 inconclusive, 3 usage/schema error)
  append   --run run.json --trajectory BENCH_quality.json
           merge one run into the repo-root trajectory file
  check    --trajectory BENCH_quality.json [--min-designs 20]
           validate the committed trajectory (schema, >= N designs in the
           latest run, every ratio >= 1 and legal)
  warm     --cold cold.json --warm warm.json [--min-speedup 1.5]
           gate a warm-started rerun against the cold run that seeded its
           experience store: every paired design must actually warm-start,
           no design of either run may stop as "diverged", the summed
           solver iterations must drop by >= the speedup factor, and
           quality (the paired SPRT above, cold as baseline) must not
           REJECT — resuming from your own converged placement must save
           work without costing wirelength. Exit codes match `compare`.

Used by `ctest -L quality` and the quality-gate CI job; the math is unit
tested by scripts/test_quality_gate.py. Schema notes: docs/BENCHMARKS.md.
"""

import argparse
import datetime
import json
import math
import sys

ALPHA = 0.05  # false-reject probability when the candidate is not worse
BETA = 0.10   # miss probability when the candidate is worse at rate P1
P1 = 0.9      # H1: probability a paired design gets worse under a regression
EPS = 1e-4    # relative ratio difference treated as a tie

# Largest relative geomean-ratio increase a candidate may show. Two runs of
# one build on the same seeded fleet are bitwise identical, so the re-run
# spread of the geomean is exactly zero and any increase is caused by the
# change, not by noise; the bound is therefore set by what matters, not by
# what varies. The smallest quality difference the paper reports between
# placers is 1% (Table 1: the finest-grid configuration at 1.01x; Table 2:
# RQL and NTUPlace3 at 1.01x of ComPLx's scaled HPWL), so a candidate that
# loses more than that has given back a margin the paper treats as a
# result. Never widen this to let a change through.
MAX_GEOMEAN_REGRESSION = 0.01

ACCEPT, REJECT, INCONCLUSIVE = "accept", "reject", "inconclusive"

# Stop reasons that mean the placer broke down rather than finished.
FAILED_STOPS = ("diverged", "rollback-cycle")


def sprt_bounds(alpha=ALPHA, beta=BETA):
    """Wald decision thresholds (lower, upper) for the log-likelihood ratio."""
    return math.log(beta / (1.0 - alpha)), math.log((1.0 - beta) / alpha)


def sprt_sign_test(n_worse, n_better, alpha=ALPHA, beta=BETA, p1=P1):
    """SPRT on the sign of paired differences (ties already dropped).

    Returns (decision, llr, lower_bound, upper_bound); decision is one of
    ACCEPT / REJECT / INCONCLUSIVE.
    """
    if not 0.0 < alpha < 1.0 or not 0.0 < beta < 1.0:
        raise ValueError("alpha and beta must be in (0, 1)")
    if not 0.5 < p1 < 1.0:
        raise ValueError("p1 must be in (0.5, 1.0)")
    lower, upper = sprt_bounds(alpha, beta)
    llr = n_worse * math.log(p1 / 0.5) + n_better * math.log((1.0 - p1) / 0.5)
    if llr >= upper:
        return REJECT, llr, lower, upper
    if llr <= lower:
        return ACCEPT, llr, lower, upper
    return INCONCLUSIVE, llr, lower, upper


def load_run(path):
    with open(path, "r", encoding="utf-8") as f:
        run = json.load(f)
    if run.get("kind") != "peko_fleet_run" or run.get("schema_version") != 1:
        raise ValueError(f"{path}: not a schema-version-1 peko_fleet_run")
    if not run.get("designs"):
        raise ValueError(f"{path}: run contains no designs")
    return run


def pair_records(baseline, candidate):
    """Pairs designs by name; raises ValueError when the lists differ."""
    base = {d["name"]: d for d in baseline["designs"]}
    cand = {d["name"]: d for d in candidate["designs"]}
    if set(base) != set(cand):
        missing = sorted(set(base) ^ set(cand))
        raise ValueError(
            "baseline and candidate ran different designs; the paired test "
            f"needs identical seeded fleets (mismatch: {missing[:6]}...)")
    return [(base[n], cand[n]) for n in sorted(base)]


def compare_runs(baseline, candidate, alpha=ALPHA, beta=BETA, p1=P1, eps=EPS):
    """Full gate decision for two loaded runs. Returns a result dict."""
    pairs = pair_records(baseline, candidate)
    illegal_base = sum(1 for b, _ in pairs if not b.get("legal", False))
    illegal_cand = sum(1 for _, c in pairs if not c.get("legal", False))
    new_failures = [f"{c['name']}:{c['stop']}" for b, c in pairs
                    if c.get("stop") in FAILED_STOPS
                    and b.get("stop") not in FAILED_STOPS]
    geo_base = baseline["summary"]["geomean_ratio"]
    geo_cand = candidate["summary"]["geomean_ratio"]
    geomean_change = geo_cand / geo_base - 1.0
    n_worse = n_better = n_tie = 0
    worst = None
    for b, c in pairs:
        diff = c["ratio"] - b["ratio"]
        if abs(diff) <= eps * b["ratio"]:
            n_tie += 1
        elif diff > 0:
            n_worse += 1
            if worst is None or diff > worst[1]:
                worst = (b["name"], diff)
        else:
            n_better += 1

    if illegal_cand > illegal_base:
        decision, llr, lower, upper = REJECT, None, *sprt_bounds(alpha, beta)
        reason = (f"candidate produced {illegal_cand} illegal placements "
                  f"(baseline: {illegal_base}); ratio certificates void")
    elif new_failures:
        decision, llr, lower, upper = REJECT, None, *sprt_bounds(alpha, beta)
        reason = (f"{len(new_failures)} design(s) stopped on a failure the "
                  f"baseline did not ({new_failures[:4]})")
    elif geomean_change > MAX_GEOMEAN_REGRESSION:
        decision, llr, lower, upper = REJECT, None, *sprt_bounds(alpha, beta)
        reason = (f"geomean ratio {geo_base:.4f} -> {geo_cand:.4f} "
                  f"(+{100.0 * geomean_change:.2f}%) exceeds the "
                  f"{100.0 * MAX_GEOMEAN_REGRESSION:g}% regression bound")
    elif n_worse == 0 and n_better == 0:
        decision, llr, lower, upper = ACCEPT, 0.0, *sprt_bounds(alpha, beta)
        reason = f"all {n_tie} paired ratios tie within eps={eps:g}"
    else:
        decision, llr, lower, upper = sprt_sign_test(
            n_worse, n_better, alpha, beta, p1)
        reason = (f"SPRT sign test: {n_worse} worse / {n_better} better / "
                  f"{n_tie} ties; llr={llr:.3f} vs [{lower:.3f}, {upper:.3f}]")
        if decision == INCONCLUSIVE:
            reason += " — add designs/seeds and rerun"
    return {
        "decision": decision,
        "reason": reason,
        "pairs": len(pairs),
        "worse": n_worse,
        "better": n_better,
        "ties": n_tie,
        "llr": llr,
        "bounds": [lower, upper],
        "alpha": alpha,
        "beta": beta,
        "p1": p1,
        "eps": eps,
        "worst_regression": worst,
        "illegal": {"baseline": illegal_base, "candidate": illegal_cand},
        "new_failures": new_failures,
        "geomean_ratio": {"baseline": geo_base, "candidate": geo_cand},
    }


def cmd_compare(args):
    baseline = load_run(args.baseline)
    candidate = load_run(args.candidate)
    result = compare_runs(baseline, candidate, args.alpha, args.beta,
                          args.p1, args.eps)
    print(json.dumps(result, indent=2))
    verdict = result["decision"]
    print(f"quality gate: {verdict.upper()} — {result['reason']}",
          file=sys.stderr)
    if verdict == REJECT:
        return 1
    if verdict == INCONCLUSIVE:
        return 2
    return 0


def warm_gate(cold, warm, min_speedup=1.5, alpha=ALPHA, beta=BETA, p1=P1,
              eps=EPS):
    """Warm-vs-cold gate for a fleet rerun on exact-repeat designs.

    Four conditions, all required for ACCEPT:
      1. every paired design in the warm run reports warm_started (an exact
         repeat that misses the store means the hash or the store broke);
      2. no design of either run stopped as "diverged" (its iteration count
         says nothing about the work a resume saves);
      3. total solver iterations dropped by >= min_speedup;
      4. the paired quality SPRT (cold as baseline) does not REJECT.
    Returns a result dict shaped like compare_runs with extra warm fields.
    """
    pairs = pair_records(cold, warm)
    cold_started_warm = [b["name"] for b, _ in pairs
                         if b.get("warm_started", False)]
    missed = [c["name"] for _, c in pairs if not c.get("warm_started", False)]
    diverged = [f"{run}:{r['name']}" for b, c in pairs
                for run, r in (("cold", b), ("warm", c))
                if r.get("stop") == "diverged"]
    cold_iters = sum(b["iterations"] for b, _ in pairs)
    warm_iters = sum(c["iterations"] for _, c in pairs)
    speedup = (float(cold_iters) / float(warm_iters)
               if warm_iters > 0 else math.inf)

    quality = compare_runs(cold, warm, alpha, beta, p1, eps)
    problems = []
    if cold_started_warm:
        problems.append(
            f"cold run has warm-started designs ({cold_started_warm[:4]}) — "
            "it is not a cold baseline")
    if missed:
        problems.append(
            f"{len(missed)} design(s) did not warm-start ({missed[:4]}): "
            "exact repeats must hit the experience store")
    if diverged:
        problems.append(
            f"{len(diverged)} design(s) diverged ({diverged[:4]})")
    if speedup < min_speedup:
        problems.append(
            f"iteration speedup {speedup:.2f}x < required {min_speedup:g}x "
            f"({cold_iters} cold vs {warm_iters} warm)")
    if quality["decision"] == REJECT:
        problems.append(f"quality gate rejected: {quality['reason']}")

    if problems:
        decision, reason = REJECT, "; ".join(problems)
    elif quality["decision"] == INCONCLUSIVE:
        decision = INCONCLUSIVE
        reason = (f"speedup {speedup:.2f}x ok, but quality is inconclusive: "
                  f"{quality['reason']}")
    else:
        decision = ACCEPT
        reason = (f"all {len(pairs)} designs warm-started; iterations "
                  f"{cold_iters} -> {warm_iters} ({speedup:.2f}x >= "
                  f"{min_speedup:g}x); quality: {quality['reason']}")
    return {
        "decision": decision,
        "reason": reason,
        "pairs": len(pairs),
        "missed_warm_starts": missed,
        "diverged": diverged,
        "iterations": {"cold": cold_iters, "warm": warm_iters},
        "speedup": speedup,
        "min_speedup": min_speedup,
        "quality": quality,
    }


def cmd_warm(args):
    cold = load_run(args.cold)
    warm = load_run(args.warm)
    result = warm_gate(cold, warm, args.min_speedup, args.alpha, args.beta,
                       args.p1, args.eps)
    print(json.dumps(result, indent=2))
    verdict = result["decision"]
    print(f"warm-start gate: {verdict.upper()} — {result['reason']}",
          file=sys.stderr)
    if verdict == REJECT:
        return 1
    if verdict == INCONCLUSIVE:
        return 2
    return 0


def cmd_append(args):
    run = load_run(args.run)
    run["date"] = args.date or datetime.date.today().isoformat()
    if args.note:
        run["note"] = args.note
    try:
        with open(args.trajectory, "r", encoding="utf-8") as f:
            trajectory = json.load(f)
        if trajectory.get("schema_version") != 1 or "runs" not in trajectory:
            raise ValueError(f"{args.trajectory}: not a trajectory file")
    except FileNotFoundError:
        trajectory = {
            "schema_version": 1,
            "benchmark": "peko-known-optimum-fleet",
            "runs": [],
        }
    trajectory["runs"].append(run)
    with open(args.trajectory, "w", encoding="utf-8") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    print(f"appended run '{run['label']}' ({len(run['designs'])} designs) "
          f"-> {args.trajectory} ({len(trajectory['runs'])} runs)")
    return 0


def cmd_check(args):
    with open(args.trajectory, "r", encoding="utf-8") as f:
        trajectory = json.load(f)
    if trajectory.get("schema_version") != 1 or not trajectory.get("runs"):
        print(f"{args.trajectory}: missing schema_version/runs",
              file=sys.stderr)
        return 1
    latest = trajectory["runs"][-1]
    designs = latest.get("designs", [])
    problems = []
    if len(designs) < args.min_designs:
        problems.append(
            f"latest run has {len(designs)} designs < {args.min_designs}")
    for d in designs:
        for field in ("name", "seed", "cells", "hpwl", "optimum_hpwl",
                      "ratio", "overflow_percent", "wall_s"):
            if field not in d:
                problems.append(f"{d.get('name', '?')}: missing '{field}'")
                break
        else:
            if not d.get("legal", False):
                problems.append(f"{d['name']}: not legal")
            if d["ratio"] < 1.0:
                problems.append(
                    f"{d['name']}: ratio {d['ratio']} < 1 — impossible "
                    "against a true optimum; the record is corrupt")
            if abs(d["ratio"] * d["optimum_hpwl"] - d["hpwl"]) > \
                    1e-9 * max(1.0, d["hpwl"]):
                problems.append(f"{d['name']}: ratio inconsistent with "
                                "hpwl/optimum_hpwl")
    if problems:
        for p in problems:
            print(f"check: {p}", file=sys.stderr)
        return 1
    print(f"{args.trajectory}: OK — {len(trajectory['runs'])} runs, latest "
          f"'{latest.get('label')}' with {len(designs)} designs, geomean "
          f"ratio {latest['summary']['geomean_ratio']:.4f}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="paired SPRT gate on two fleet runs")
    p.add_argument("--baseline", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--alpha", type=float, default=ALPHA)
    p.add_argument("--beta", type=float, default=BETA)
    p.add_argument("--p1", type=float, default=P1)
    p.add_argument("--eps", type=float, default=EPS)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("warm",
                       help="gate a warm-started rerun against its cold run")
    p.add_argument("--cold", required=True)
    p.add_argument("--warm", required=True)
    p.add_argument("--min-speedup", type=float, default=1.5)
    p.add_argument("--alpha", type=float, default=ALPHA)
    p.add_argument("--beta", type=float, default=BETA)
    p.add_argument("--p1", type=float, default=P1)
    p.add_argument("--eps", type=float, default=EPS)
    p.set_defaults(func=cmd_warm)

    p = sub.add_parser("append", help="append a run to the trajectory file")
    p.add_argument("--run", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--date", default=None)
    p.add_argument("--note", default=None)
    p.set_defaults(func=cmd_append)

    p = sub.add_parser("check", help="validate the committed trajectory")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--min-designs", type=int, default=20)
    p.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
