#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload in a short mode (--seconds 1), untraced and traced, and
checks that the result line carries exactly the metrics BENCHMARK.json
declares, each with its unit, and that the correctness gate passed.  Then
forces a digest mismatch and checks that the gate counts every round failed,
and checks that the benchmark refuses to run without the sources it builds.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", trace, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ShortRunTest(unittest.TestCase):
    def check(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {name: metric["unit"]
                 for name, metric in result["metrics"].items()}
        self.assertEqual(units, {m["name"]: m["unit"] for m in declared})
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))

    def test_every_workload_reports_every_metric(self):
        # All four, including the two BENCHMARK.json leaves to manual runs.
        for workload in ("ring-small", "ring-large", "torus-flush",
                         "sim-fold"):
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = result_of(run(workload, trace))
                    self.check(result, SPEC[key])
                    if key == "end_to_end":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


class FailureAccountingTest(unittest.TestCase):
    def test_digest_mismatch_fails_every_round(self):
        # One socket workload and the in-process one: two gate paths.
        for workload in ("ring-small", "sim-fold"):
            with self.subTest(workload=workload):
                result = result_of(
                    run(workload, "0", "--inject-digest-mismatch"))
                self.assertFalse(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], result["attempted"])

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("ring-small", "0", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
