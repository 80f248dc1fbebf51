#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-size smoke run of every workload, traced
and untraced, and a deliberately corrupted result on each.

    python3 perfbench/test_perfbench.py

Builds through run.py like a benchmark run does. Every run uses two suite
kernels (--kernels 2) and a one-second window.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--kernels", "2", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class Smoke(unittest.TestCase):
    def check_metrics(self, result, spec):
        expected = {m["name"]: m["unit"] for m in spec}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = run(workload, trace)
                    self.assertEqual(code, 0, err[-2000:])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, spec)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_corrupted_result_trips_the_check(self):
        cases = [(w, 0) for w in WORKLOADS] + [("dse-model", 1), ("validate-sim", 1)]
        for workload, trace in cases:
            with self.subTest(workload=workload, trace=trace):
                code, result, err = run(workload, trace, "--corrupt")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertIn("VIOLATION", err)

    def test_seed_fixes_the_inputs(self):
        # Two traced runs of one seed do the same work: identical counts.
        exact = ["model.estimate.calls", "sim.accesses", "dram.accesses", "sim.cycles",
                 "rodinia.avg_err_pct", "polybench.pick_gap_pct"]
        _, first, _ = run("validate-sim", 1)
        _, second, _ = run("validate-sim", 1)
        for name in exact:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
