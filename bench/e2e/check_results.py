#!/usr/bin/env python3
"""Checks a bench_e2e results.json against BENCHMARK.json.

    python3 check_results.py BENCHMARK.json results.json

Every workload in the results must be declared in BENCHMARK.json, have no
failed job, and carry exactly the declared end-to-end metrics with their
units (end-to-end values above 0); a traced run must also carry exactly
the declared per-layer metrics. Exits 1 and lists the problems otherwise.
"""
import json
import sys


def check(spec, results):
    errors = []
    declared = {w["name"] for w in spec["workloads"]}
    if not results["workloads"]:
        errors.append("results hold no workload")
    groups = ["end_to_end"] + (["per_layer"] if results["traced"] else [])
    for w in results["workloads"]:
        name = w["name"]
        if name not in declared:
            errors.append(f"{name}: not a workload of BENCHMARK.json")
        if w["failed"] or w["attempted"] < 1:
            errors.append(f"{name}: {w['failed']} of {w['attempted']} "
                          f"attempts failed: {w['failures']}")
        for group in groups:
            got = w.get(group, {})
            want = {m["name"]: m["unit"] for m in spec[group]}
            for metric, unit in want.items():
                if metric not in got:
                    errors.append(f"{name}: {group} metric {metric} missing")
                elif got[metric]["unit"] != unit:
                    errors.append(f"{name}: {metric} in {got[metric]['unit']}, "
                                  f"declared {unit}")
                elif group == "end_to_end" and not got[metric]["value"] > 0:
                    errors.append(f"{name}: {metric} is {got[metric]['value']}")
            for metric in sorted(set(got) - set(want)):
                errors.append(f"{name}: {group} metric {metric} not declared")
    return errors


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    with open(sys.argv[2]) as f:
        results = json.load(f)
    errors = check(spec, results)
    for e in errors:
        print(e)
    if errors:
        sys.exit(1)
    print(f"ok: {len(results['workloads'])} workload(s) match BENCHMARK.json")


if __name__ == "__main__":
    main()
