#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size, end-to-end and
traced, prints every metric BENCHMARK.json names with its unit; a corrupted
expected byte makes error_rate non-zero and fails the run.

Run from the repository root:  python3 perfbench/test_run.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STORE_DIR = os.path.join(".bench_work", "selftest")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
           "--store-dir", STORE_DIR, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1])


class Workloads(unittest.TestCase):
    def check(self, trace, key):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, lines, result = run(w, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                expected = {m["name"]: m["unit"] for m in SPEC[key]}
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                for name, unit in expected.items():
                    line = re.compile(rf"^metric {re.escape(name)} = (\S+) {re.escape(unit)}$")
                    self.assertTrue(any(line.match(l) for l in lines), f"{name} not printed")
                self.assertTrue(any(l.startswith("fingerprint {") for l in lines))
                if trace == 0:
                    self.assertIn("metric error_rate = 0 share", lines)

    def test_end_to_end_metrics_printed_with_units(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics_printed_with_units(self):
        self.check(1, "per_layer")

    def test_corrupted_expected_byte_fails_the_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, lines, result = run(w, 0, "--corrupt-expected")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                rate = [l for l in lines if l.startswith("metric error_rate = ")]
                self.assertEqual(len(rate), 1)
                self.assertGreater(float(rate[0].split()[3]), 0.0)


if __name__ == "__main__":
    unittest.main()
