#!/usr/bin/env python3
"""Repo benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the `perfbench` binary from source (CMake + Ninja, Release) into
$CARGO_TARGET_DIR/perfbench -- `.bench_build/perfbench` when unset --
then runs the named workload in a fresh process. The binary prints a
human-readable table and, as the last line of stdout, one JSON object
{"correct", "attempted", "failed", "metrics"}; this script checks that
object against BENCHMARK.json before passing it through. --self-test runs
the benchmark's own tests (perfbench/test_perfbench.py).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end within 180 s, build excluded


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then lets Ninja decide what is stale. Returns the binary."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(out, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "perfbench")


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        base = os.path.join(ROOT, sub)
        for dirpath, dirnames, files in os.walk(base):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".py", ".txt")):
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args, extra = ap.parse_known_args()

    binary = build()
    if args.self_test:
        test = os.path.join(HERE, "test_perfbench.py")
        sys.exit(subprocess.run([sys.executable, test, binary]).returncode)

    if not args.workload:
        log("--workload is required")
        sys.exit(2)
    expected = expected_metrics(args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()] + extra
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode}")
        sys.exit(1)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        print("\n".join(lines[:-1]))
        log(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}")
        sys.exit(1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
