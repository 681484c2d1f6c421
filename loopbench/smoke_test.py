#!/usr/bin/env python3
"""Tests of the loopback benchmark's command.

Run from the repository root (builds the benchmark on first use):

  python3 loopbench/smoke_test.py

* smoke mode runs every workload briefly, traced and untraced, and passes
  only if each metric BENCHMARK.json names is printed with its unit and the
  output check ran;
* in a directory holding only BENCHMARK.json and loopbench/ (no runtime
  sources) the command fails without printing a result.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class LoopbenchTest(unittest.TestCase):
    def test_smoke_mode_prints_every_metric_and_checks_reads(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("smoke: passed", done.stdout)

    def test_fails_without_result_when_sources_are_missing(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "loopbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            done = subprocess.run(
                [sys.executable, "loopbench/run.py", "--workload", "read-hit",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=170)
        self.assertNotEqual(done.returncode, 0)
        last = (done.stdout.strip().splitlines() or [""])[-1]
        self.assertFalse(last.startswith("{"), done.stdout)


if __name__ == "__main__":
    unittest.main()
