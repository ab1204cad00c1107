#!/usr/bin/env python3
"""The benchmark's own tests: its checks must catch what they claim to.

    python3 perfbench/run.py --self-test          (builds, then runs these)
    python3 perfbench/test_perfbench.py BINARY    (an already built binary)

  * a clean short run of every workload reports correct with 0 failures
    (on seed 1 that includes the recorded simulated totals);
  * an output word corrupted before the check trips it, on every workload;
  * a generator stall injected into the open loop is charged to every
    window that fell due during it (latency is timed from the due time);
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = None


def run(*args):
    out = subprocess.run([BINARY, *args], capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"perfbench {' '.join(args)} exited {out.returncode}:\n"
                             f"{out.stdout}{out.stderr}")
    lines = out.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


class Checks(unittest.TestCase):
    WORKLOADS = ("kernels", "stream", "gateway", "gateway-recorder")

    def test_clean_runs_pass(self):
        for wl in self.WORKLOADS:
            with self.subTest(workload=wl):
                result, notes = run("--workload", wl, "--seconds", "1", "--seed", "1")
                self.assertTrue(result["correct"], notes)
                self.assertEqual(result["failed"], 0, notes)
                self.assertGreater(result["attempted"], 0)

    def test_corrupted_output_trips_the_check(self):
        for wl in self.WORKLOADS:
            with self.subTest(workload=wl):
                result, notes = run("--workload", wl, "--seconds", "1", "--seed", "2",
                                    "--inject", "corrupt")
                self.assertFalse(result["correct"], notes)
                self.assertEqual(result["failed"], 1, notes)

    def test_stall_is_charged_to_due_windows(self):
        result, notes = run("--workload", "gateway", "--seconds", "2", "--seed", "3",
                            "--inject", "stall")
        line = next(n for n in notes if "stall check" in n)
        charged = int(line.split("stall check: ")[1].split()[0])
        self.assertGreater(charged, 0, line)
        self.assertIn(" 0 under-charged", line)
        self.assertTrue(result["correct"], notes)
        self.assertGreater(result["metrics"]["cpu_us_per_op"]["value"], 0)


class Contract(unittest.TestCase):
    def test_fails_without_the_sources(self):
        base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        if not os.path.isabs(base):
            base = os.path.join(ROOT, base)
        bare = os.path.join(base, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "kernels", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    BINARY = os.path.abspath(sys.argv.pop(1))
    unittest.main(verbosity=2)
