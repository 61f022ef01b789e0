#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of the repository:

    python3 bench_e2e/run.py --workload W --seed N --seconds S --trace 0|1

Builds bench_e2e/e2e.exe with dune, runs workload W on seed N for S
seconds, and prints the run's report on standard error. The last line of
standard output is one JSON object with the keys "correct", "attempted",
"failed" and "metrics": with --trace 0 the metrics are every end-to-end
metric BENCHMARK.json declares, with --trace 1 every per-layer metric.

Exits 2 on bad arguments and 1, printing no result, when the build or
the run fails or a declared metric is missing. When an oracle finds a
violation the result is printed with "correct": false and the exit code
is 1.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "bench_e2e", "e2e.exe")
OUT_DIR = os.path.join("_build", "bench-out")
TRACE_DIR = os.path.join("_build", "bench-trace")
# The run itself must end well inside the 180 s a run is given; the
# build before it is not counted against this.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json in {os.getcwd()}: {e}", 2)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    declared = bench["per_layer" if args.trace else "end_to_end"]

    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bench_e2e/e2e.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(
        OUT_DIR, f"{args.workload}-{args.seed}-trace{args.trace}.jsonl"
    )
    if os.path.exists(out):
        os.remove(out)
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--out", out,
        "--trace-out", TRACE_DIR,
    ] + (["--trace"] if args.trace else [])
    try:
        run = subprocess.run(
            cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    try:
        with open(out) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
    except (OSError, ValueError, IndexError) as e:
        fail(f"run left no result (exit {run.returncode}): {e}")

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} declared but not emitted")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
