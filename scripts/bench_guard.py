#!/usr/bin/env python3
"""Figure parallel-speedup guard.

Usage: bench_guard.py FRESH.json

Reads the "figures" array written by `bench/main.exe` (wall seconds per
figure, sequential and on --jobs domains). When the run used >= 4
domains on a machine that actually has >= 4 cores (its recorded
"domains_recommended"), the aggregate sequential/parallel wall-clock
ratio must be >= 1.5x and no single figure may be slower in parallel
than sequential (>= 1.0x, less a small tolerance for sub-second
figures). On smaller machines the floor is reported but not enforced —
a 1- or 2-core runner cannot physically show a 1.5x speedup, and the
JSON records jobs/domains_recommended honestly precisely so this script
can tell the difference.
"""

import json
import sys

# Parallel-speedup floor, enforced only when the measuring host can
# plausibly meet it (jobs >= 4 and >= 4 recommended domains).
AGGREGATE_FLOOR = 1.5
PER_FIGURE_FLOOR = 1.0
# A figure finishing in under a second is dominated by domain spawn/join and
# measurement noise; give those a 15% grace on the per-figure floor.
PER_FIGURE_TOLERANCE = 0.85
MIN_JOBS = 4


def load(path):
    with open(path) as f:
        return json.load(f)


def check_speedup(doc):
    figures = [
        f
        for f in doc.get("figures", [])
        if f.get("id") is not None
        and f.get("seconds_sequential") is not None
        and f.get("seconds_parallel") is not None
    ]
    if not figures:
        print("speedup floor: no figure timings in fresh run; skipping")
        return True

    jobs = doc.get("jobs", 1)
    cores = doc.get("domains_recommended", 1)
    seq = sum(f["seconds_sequential"] for f in figures)
    par = sum(f["seconds_parallel"] for f in figures)
    aggregate = seq / par if par > 0 else float("inf")

    width = max(len(f["id"]) for f in figures)
    print(f"\n{'figure':<{width}}  {'sequential':>10}  {'parallel':>10}  {'speedup':>7}")
    slow = []
    for f in figures:
        s, p = f["seconds_sequential"], f["seconds_parallel"]
        ratio = s / p if p > 0 else float("inf")
        floor = PER_FIGURE_FLOOR * (PER_FIGURE_TOLERANCE if s < 1.0 else 1.0)
        bad = ratio < floor
        flag = "  SLOWER IN PARALLEL" if bad else ""
        print(f"{f['id']:<{width}}  {s:>9.3f}s  {p:>9.3f}s  {ratio:>6.2f}x{flag}")
        if bad:
            slow.append((f["id"], ratio, floor))
    print(
        f"aggregate: {seq:.3f}s sequential vs {par:.3f}s on {jobs} domains "
        f"= {aggregate:.2f}x (host recommends {cores})"
    )

    if jobs < MIN_JOBS or cores < MIN_JOBS:
        print(
            f"speedup floor: not enforced (needs jobs >= {MIN_JOBS} and "
            f">= {MIN_JOBS} cores; this run: jobs={jobs}, cores={cores}). "
            "Numbers above are informational."
        )
        return True

    ok = True
    if aggregate < AGGREGATE_FLOOR:
        print(
            f"\nspeedup floor: aggregate {aggregate:.2f}x is below the "
            f"{AGGREGATE_FLOOR:.1f}x floor at {jobs} domains — the parallel "
            "harness is not paying for itself.",
            file=sys.stderr,
        )
        ok = False
    for fig_id, ratio, floor in slow:
        print(
            f"speedup floor: {fig_id} runs {ratio:.2f}x sequential speed in "
            f"parallel (floor {floor:.2f}x) — a figure must never lose from "
            "running in parallel.",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print(
            f"speedup floor: aggregate {aggregate:.2f}x >= {AGGREGATE_FLOOR:.1f}x "
            "and every figure at parity or better"
        )
    return ok


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} FRESH.json")
    if not check_speedup(load(sys.argv[1])):
        sys.exit(1)


if __name__ == "__main__":
    main()
