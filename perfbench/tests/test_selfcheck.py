#!/usr/bin/env python3
"""Negative self-check of the benchmark's correctness gates.

Runs every workload at a tiny size four ways: clean untraced, clean
traced, with a perturbed spectrum, and with a NaN planted in one fragment
by fault::FaultyEngine. The clean runs must pass every gate; the
sabotaged ones must each report a failed operation, so "no failures" can
never pass vacuously. Also checks that a normal run's last stdout line is
a well-formed result record.

    python3 perfbench/tests/test_selfcheck.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


class SelfCheck(unittest.TestCase):
    def test_gates_fire_on_sabotage(self):
        p = subprocess.run(RUN + ["--selfcheck"], cwd=ROOT,
                           capture_output=True, text=True, timeout=1200)
        sys.stderr.write(p.stdout)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr[-2000:])
        self.assertIn("selfcheck passed", p.stdout)
        self.assertNotIn("WRONG", p.stdout)

    def test_result_record(self):
        p = subprocess.run(RUN + ["--workload", "lda_waters", "--seed", "3",
                                  "--seconds", "1", "--trace", "0"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=600)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        rec = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(rec), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(rec["correct"])
        self.assertGreaterEqual(rec["attempted"], 1)
        self.assertEqual(rec["failed"], 0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for m in bench["end_to_end"]:
            self.assertIn(m["name"], rec["metrics"])
            self.assertGreater(rec["metrics"][m["name"]]["value"], 0.0)
            self.assertEqual(rec["metrics"][m["name"]]["unit"], m["unit"])


if __name__ == "__main__":
    unittest.main()
