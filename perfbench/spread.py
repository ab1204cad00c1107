#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--seconds S]

Runs every workload --runs times, each with another --seed, and prints per
metric the median and the interquartile distance (Python's
statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above the bound means the
metric cannot resolve a change of that size; the benchmark aims for a
third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for wl in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(args.first_seed + i), "--seconds", str(args.seconds),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stdout + out.stderr)
                sys.exit(f"{wl}: run {i} failed")
            result = json.loads(out.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{wl}: run {i} reported failures")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{wl} ({args.runs} runs)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
            print(f"  {name:18s} median {med:14.6g}  spread {share:7.2%}  "
                  f"bound {bounds[name]:.0%}  {'OK' if share <= bounds[name] / 3 else 'WIDE'}")
        sys.stdout.flush()
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
