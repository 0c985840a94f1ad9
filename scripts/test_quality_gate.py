#!/usr/bin/env python3
"""Unit tests for the gate math in scripts/quality_gate.py.

Run directly (python3 scripts/test_quality_gate.py) or via
`ctest -L quality` (test name: quality_gate_unit). The synthetic-sample
tests are the contract the documented alpha/beta claim rests on: known
better / worse / equal paired distributions must produce accept / reject /
accept, and the Monte-Carlo error rates must respect the Wald bounds.
"""

import json
import math
import os
import random
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import quality_gate as qg


def make_run(ratios, label="run", legal=None, names=None, iterations=None,
             warm_started=False, stops=None):
    """A minimal schema-1 fleet run with the given suboptimality ratios."""
    designs = []
    for k, r in enumerate(ratios):
        designs.append({
            "name": names[k] if names else f"d{k}",
            "seed": k + 1,
            "cells": 256,
            "hpwl": 1000.0 * r,
            "optimum_hpwl": 1000.0,
            "ratio": r,
            "overflow_percent": 0.0,
            "legal": legal[k] if legal else True,
            "iterations": iterations[k] if iterations else 12,
            "warm_started": warm_started,
            "wall_s": 0.0,
            "stop": stops[k] if stops else "converged",
            "recoveries": 0,
        })
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return {
        "schema_version": 1,
        "kind": "peko_fleet_run",
        "label": label,
        "preset": "test",
        "config": {},
        "designs": designs,
        "summary": {"designs": len(designs), "illegal": 0,
                    "geomean_ratio": geomean, "max_ratio": max(ratios),
                    "mean_overflow_percent": 0.0, "total_wall_s": 0.0},
    }


class SprtMathTest(unittest.TestCase):
    def test_bounds_are_the_wald_thresholds(self):
        lower, upper = qg.sprt_bounds(alpha=0.05, beta=0.10)
        self.assertAlmostEqual(upper, math.log(0.90 / 0.05))
        self.assertAlmostEqual(lower, math.log(0.10 / 0.95))

    def test_uniformly_worse_rejects(self):
        decision, llr, _, upper = qg.sprt_sign_test(20, 0)
        self.assertEqual(decision, qg.REJECT)
        self.assertGreaterEqual(llr, upper)

    def test_uniformly_better_accepts(self):
        decision, llr, lower, _ = qg.sprt_sign_test(0, 20)
        self.assertEqual(decision, qg.ACCEPT)
        self.assertLessEqual(llr, lower)

    def test_tiny_sample_is_inconclusive(self):
        # 1/1: llr = ln(1.8) - ln(5) ~ -1.02, inside (-2.25, 2.89).
        decision, _, _, _ = qg.sprt_sign_test(1, 1)
        self.assertEqual(decision, qg.INCONCLUSIVE)

    def test_balanced_larger_sample_accepts(self):
        # "Better" evidence weighs |ln(0.2)| ~ 1.61 against ln(1.8) ~ 0.59
        # per "worse", so a 50/50 split drifts toward accept — exactly the
        # H0 (no systematic regression) behavior we want.
        decision, _, _, _ = qg.sprt_sign_test(3, 3)
        self.assertEqual(decision, qg.ACCEPT)

    def test_minimum_evidence_to_reject(self):
        # With alpha=0.05, beta=0.10, p1=0.9 a clean regression needs
        # ceil(ln(18)/ln(1.8)) = 5 consecutive worse pairs.
        self.assertEqual(qg.sprt_sign_test(4, 0)[0], qg.INCONCLUSIVE)
        self.assertEqual(qg.sprt_sign_test(5, 0)[0], qg.REJECT)

    def test_invalid_parameters_raise(self):
        with self.assertRaises(ValueError):
            qg.sprt_sign_test(1, 1, alpha=0.0)
        with self.assertRaises(ValueError):
            qg.sprt_sign_test(1, 1, p1=0.4)

    def test_monte_carlo_error_rates_respect_wald_bounds(self):
        # Empirical check of the documented error budgets on sequences of
        # 40 paired signs: under H0 (fair coin) the reject rate must stay
        # below ~alpha; under H1 (worse with probability p1=0.9) the
        # accept/miss rate must stay below ~beta. Wald's bounds are
        # approximate for truncated sequences, hence the 1.5x slack.
        rng = random.Random(12345)
        trials = 2000

        def run_trial(p_worse):
            worse = better = 0
            for _ in range(40):
                if rng.random() < p_worse:
                    worse += 1
                else:
                    better += 1
                decision, _, _, _ = qg.sprt_sign_test(worse, better)
                if decision != qg.INCONCLUSIVE:
                    return decision
            return qg.INCONCLUSIVE

        false_rejects = sum(run_trial(0.5) == qg.REJECT
                            for _ in range(trials)) / trials
        misses = sum(run_trial(0.9) != qg.REJECT
                     for _ in range(trials)) / trials
        self.assertLess(false_rejects, qg.ALPHA * 1.5)
        self.assertLess(misses, qg.BETA * 1.5)


class CompareRunsTest(unittest.TestCase):
    def test_identical_runs_accept_on_all_ties(self):
        base = make_run([1.5, 1.6, 1.7, 1.8])
        result = qg.compare_runs(base, make_run([1.5, 1.6, 1.7, 1.8]))
        self.assertEqual(result["decision"], qg.ACCEPT)
        self.assertEqual(result["ties"], 4)
        self.assertEqual(result["worse"], 0)

    def test_sub_eps_noise_counts_as_ties(self):
        base = make_run([1.5] * 6)
        cand = make_run([1.5 * (1.0 + 1e-7)] * 6)
        result = qg.compare_runs(base, cand)
        self.assertEqual(result["decision"], qg.ACCEPT)
        self.assertEqual(result["ties"], 6)

    def test_clear_regression_rejects(self):
        base = make_run([1.5] * 20)
        cand = make_run([1.9] * 20)
        result = qg.compare_runs(base, cand)
        self.assertEqual(result["decision"], qg.REJECT)
        self.assertEqual(result["worse"], 20)

    def test_clear_improvement_accepts(self):
        base = make_run([1.9] * 20)
        cand = make_run([1.5] * 20)
        result = qg.compare_runs(base, cand)
        self.assertEqual(result["decision"], qg.ACCEPT)
        self.assertEqual(result["better"], 20)

    def test_mixed_weak_evidence_is_inconclusive(self):
        # 3 worse, 1 better, 4 ties: llr = 3 ln 1.8 + ln 0.2 ~ +0.15 —
        # inside the Wald bounds, so the gate asks for more data.
        ratios = [1.5] * 8
        jitter = [1.51] * 3 + [1.49] + [1.5] * 4
        result = qg.compare_runs(make_run(ratios), make_run(jitter))
        self.assertEqual(result["decision"], qg.INCONCLUSIVE)

    def test_partial_regression_still_rejects(self):
        # 14 worse, 2 better, 4 ties — evidence should dominate.
        base = make_run([1.5] * 20)
        cand_ratios = [1.8] * 14 + [1.4] * 2 + [1.5] * 4
        result = qg.compare_runs(base, make_run(cand_ratios))
        self.assertEqual(result["decision"], qg.REJECT)

    def test_new_illegal_placements_reject(self):
        base = make_run([1.5] * 6)
        cand = make_run([1.5] * 6, legal=[True] * 5 + [False])
        result = qg.compare_runs(base, cand)
        self.assertEqual(result["decision"], qg.REJECT)
        self.assertIn("illegal", result["reason"])

    def test_mismatched_design_lists_raise(self):
        base = make_run([1.5, 1.6])
        cand = make_run([1.5, 1.6], names=["d0", "other"])
        with self.assertRaises(ValueError):
            qg.compare_runs(base, cand)


class WarmGateTest(unittest.TestCase):
    def cold_run(self, n=10, iters=12):
        return make_run([1.5] * n, label="cold", iterations=[iters] * n)

    def warm_run(self, n=10, iters=4, ratios=None, warm_started=True):
        return make_run(ratios or [1.5] * n, label="warm",
                        iterations=[iters] * n, warm_started=warm_started)

    def test_good_warm_rerun_accepts(self):
        result = qg.warm_gate(self.cold_run(), self.warm_run())
        self.assertEqual(result["decision"], qg.ACCEPT)
        self.assertAlmostEqual(result["speedup"], 3.0)
        self.assertEqual(result["missed_warm_starts"], [])

    def test_insufficient_speedup_rejects(self):
        result = qg.warm_gate(self.cold_run(iters=12),
                              self.warm_run(iters=10))
        self.assertEqual(result["decision"], qg.REJECT)
        self.assertIn("speedup", result["reason"])

    def test_missed_warm_start_rejects(self):
        result = qg.warm_gate(self.cold_run(),
                              self.warm_run(warm_started=False))
        self.assertEqual(result["decision"], qg.REJECT)
        self.assertEqual(len(result["missed_warm_starts"]), 10)

    def test_warm_baseline_is_not_a_cold_baseline(self):
        # Handing the gate two warm runs must fail loudly, not accept.
        warm_as_cold = self.warm_run(iters=12)
        result = qg.warm_gate(warm_as_cold, self.warm_run())
        self.assertEqual(result["decision"], qg.REJECT)
        self.assertIn("not a cold baseline", result["reason"])

    def test_quality_regression_rejects_despite_speedup(self):
        n = 20
        result = qg.warm_gate(
            self.cold_run(n=n),
            self.warm_run(n=n, ratios=[1.9] * n))
        self.assertEqual(result["decision"], qg.REJECT)
        self.assertIn("quality gate rejected", result["reason"])

    def test_diverged_design_rejects(self):
        n = 10
        warm = make_run([1.5] * n, label="warm", iterations=[4] * n,
                        warm_started=True,
                        stops=["diverged"] + ["plateau"] * (n - 1))
        result = qg.warm_gate(self.cold_run(n=n), warm)
        self.assertEqual(result["decision"], qg.REJECT)
        self.assertEqual(result["diverged"], ["warm:d0"])
        self.assertIn("diverged", result["reason"])
        cold = make_run([1.5] * n, label="cold", iterations=[12] * n,
                        stops=["converged"] * (n - 1) + ["diverged"])
        result = qg.warm_gate(cold, self.warm_run(n=n))
        self.assertEqual(result["decision"], qg.REJECT)
        self.assertEqual(result["diverged"], ["cold:d9"])

    def test_custom_min_speedup(self):
        result = qg.warm_gate(self.cold_run(iters=12),
                              self.warm_run(iters=10), min_speedup=1.1)
        self.assertEqual(result["decision"], qg.ACCEPT)


class CliTest(unittest.TestCase):
    """End-to-end exit-code contract of the script itself."""

    def run_gate(self, *argv):
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "quality_gate.py")
        return subprocess.run([sys.executable, script, *argv],
                              capture_output=True, text=True).returncode

    def test_compare_exit_codes(self):
        with tempfile.TemporaryDirectory() as d:
            paths = {}
            for name, ratios in [("base", [1.5] * 20), ("same", [1.5] * 20),
                                 ("worse", [2.0] * 20)]:
                paths[name] = os.path.join(d, name + ".json")
                with open(paths[name], "w") as f:
                    json.dump(make_run(ratios, label=name), f)
            self.assertEqual(self.run_gate(
                "compare", "--baseline", paths["base"],
                "--candidate", paths["same"]), 0)
            self.assertEqual(self.run_gate(
                "compare", "--baseline", paths["base"],
                "--candidate", paths["worse"]), 1)
            self.assertEqual(self.run_gate(
                "compare", "--baseline", paths["base"],
                "--candidate", os.path.join(d, "missing.json")), 3)

    def test_warm_exit_codes(self):
        with tempfile.TemporaryDirectory() as d:
            cold = os.path.join(d, "cold.json")
            warm = os.path.join(d, "warm.json")
            slow = os.path.join(d, "slow.json")
            with open(cold, "w") as f:
                json.dump(make_run([1.5] * 10, iterations=[12] * 10), f)
            with open(warm, "w") as f:
                json.dump(make_run([1.5] * 10, iterations=[4] * 10,
                                   warm_started=True), f)
            with open(slow, "w") as f:
                json.dump(make_run([1.5] * 10, iterations=[11] * 10,
                                   warm_started=True), f)
            self.assertEqual(self.run_gate(
                "warm", "--cold", cold, "--warm", warm), 0)
            self.assertEqual(self.run_gate(
                "warm", "--cold", cold, "--warm", slow), 1)
            self.assertEqual(self.run_gate(
                "warm", "--cold", cold, "--warm",
                os.path.join(d, "missing.json")), 3)

    def test_append_then_check_roundtrip(self):
        with tempfile.TemporaryDirectory() as d:
            run_path = os.path.join(d, "run.json")
            traj_path = os.path.join(d, "traj.json")
            with open(run_path, "w") as f:
                json.dump(make_run([1.5] * 20), f)
            self.assertEqual(self.run_gate(
                "append", "--run", run_path, "--trajectory", traj_path,
                "--date", "2026-08-07"), 0)
            self.assertEqual(self.run_gate(
                "check", "--trajectory", traj_path, "--min-designs", "20"), 0)
            # Too few designs must fail the check.
            with open(run_path, "w") as f:
                json.dump(make_run([1.5] * 3), f)
            traj2 = os.path.join(d, "traj2.json")
            self.run_gate("append", "--run", run_path, "--trajectory", traj2)
            self.assertEqual(self.run_gate(
                "check", "--trajectory", traj2, "--min-designs", "20"), 1)

    def test_check_rejects_ratio_below_one(self):
        with tempfile.TemporaryDirectory() as d:
            run = make_run([1.5] * 19 + [0.98])
            traj_path = os.path.join(d, "traj.json")
            run_path = os.path.join(d, "run.json")
            with open(run_path, "w") as f:
                json.dump(run, f)
            self.run_gate("append", "--run", run_path,
                          "--trajectory", traj_path)
            self.assertEqual(self.run_gate(
                "check", "--trajectory", traj_path), 1)


if __name__ == "__main__":
    unittest.main()
