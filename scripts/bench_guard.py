#!/usr/bin/env python3
"""Bench regression guard: compare fresh micros against the committed baseline.

Usage: bench_guard.py BASELINE.json FRESH.json

Reads the "micro" arrays of both files (the format emitted by
`bench/main.exe --json`) and fails with a readable table if any micro
present in both regressed past the threshold. The threshold is generous
(3x, plus an absolute slop for sub-microsecond micros) because the fresh
numbers come from `--quick` runs on shared CI machines; the committed
baseline is a full-quota run on a quiet box. This catches accidental
complexity regressions (an O(n) path going quadratic), not percent-level
drift — keep it that way, a flaky guard is worse than none.

The FRESH file's "figures" array additionally gates the parallel-speedup
floor: when the fresh run used >= 4 domains on a machine that actually
has >= 4 cores (its recorded "domains_recommended"), the aggregate
sequential/parallel wall-clock ratio must be >= 1.5x and no single figure
may be slower in parallel than sequential (>= 1.0x, less a small
tolerance for sub-second figures). On smaller machines the floor is
reported but not enforced — a 1- or 2-core runner cannot physically show
a 1.5x speedup, and the JSON records jobs/domains_recommended honestly
precisely so this script can tell the difference.

Micros only present on one side are reported but never fail the run, so
adding or retiring benchmarks does not require touching this script.
"""

import json
import sys

# Fail when fresh > RATIO * baseline + SLOP_NS. The additive slop keeps
# nanosecond-scale micros (cache-hit reads, disabled-trace probes) from
# tripping the guard on scheduler jitter alone.
RATIO = 3.0
SLOP_NS = 500.0

# Throughput-mode floor (PR 8): at the over-saturated offered rate the
# JSON records, batched+pipelined commit must sustain at least this many
# times the unbatched baseline's committed txns/s. The measurement is
# virtual-time (deterministic simulator), so unlike the wall-clock floors
# below it is immune to host noise and can be tight.
THROUGHPUT_FLOOR = 2.0

# Long-fill floors (PROTOCOL.md §9): a long fill window (fill bound 64,
# depth 1, 50 ms) must also sustain THROUGHPUT_FLOOR x the unbatched
# baseline at the same saturation point, and spreading an over-saturated
# long-fill load over 4 groups (one drainer per independent log) must
# lift aggregate goodput by at least GROUPS_FLOOR x over one group. Both
# are virtual-time ratios — deterministic, so tight floors are safe.
# vs_batched is recorded in the JSON but deliberately not gated: whether
# a long window beats the default short one at a given rate is a
# workload property the harness reports honestly either way.
GROUPS_FLOOR = 1.8

# Parallel-speedup floor, enforced only when the measuring host can
# plausibly meet it (jobs >= 4 and >= 4 recommended domains).
AGGREGATE_FLOOR = 1.5
PER_FIGURE_FLOOR = 1.0
# A figure finishing in under a second is dominated by pool wake-up and
# measurement noise; give those a 15% grace on the per-figure floor.
PER_FIGURE_TOLERANCE = 0.85
MIN_JOBS = 4


def load(path):
    with open(path) as f:
        return json.load(f)


def micros(doc):
    return {
        m["name"]: m["ns_per_run"]
        for m in doc.get("micro", [])
        if m.get("name") is not None and m.get("ns_per_run") is not None
    }


def check_micros(baseline, fresh):
    # A missing or empty "micro" section (an old baseline, or a fresh run
    # scoped to figures only) is a skip, not an error: the guard's other
    # sections may still have work to do.
    if not baseline:
        print("bench guard: no micro section in baseline; skipping micro comparison")
        return True
    if not fresh:
        print("bench guard: no micro section in fresh run; skipping micro comparison")
        return True
    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        print(
            "bench guard: no micros shared between baseline and fresh run; "
            "skipping micro comparison (refresh the baseline to re-arm the guard)"
        )
        for name in sorted(baseline):
            print(f"note: {name} in baseline only (retired?)")
        for name in sorted(fresh):
            print(f"note: {name} in fresh run only (new micro; baseline not yet refreshed)")
        return True

    width = max(len(n) for n in shared)
    failures = []
    print(f"{'micro':<{width}}  {'baseline':>12}  {'fresh':>12}  {'ratio':>6}")
    for name in shared:
        base, now = baseline[name], fresh[name]
        ratio = now / base if base > 0 else float("inf")
        bad = now > RATIO * base + SLOP_NS
        flag = "  REGRESSED" if bad else ""
        print(f"{name:<{width}}  {base:>10.1f}ns  {now:>10.1f}ns  {ratio:>5.2f}x{flag}")
        if bad:
            failures.append((name, base, now, ratio))

    for name in sorted(set(baseline) - set(fresh)):
        print(f"note: {name} in baseline only (retired?)")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"note: {name} in fresh run only (new micro; baseline not yet refreshed)")

    if failures:
        print(
            f"\nbench guard: {len(failures)} micro(s) regressed past "
            f"{RATIO:.0f}x + {SLOP_NS:.0f}ns:",
            file=sys.stderr,
        )
        for name, base, now, ratio in failures:
            print(
                f"  {name}: {base:.1f}ns -> {now:.1f}ns ({ratio:.2f}x)",
                file=sys.stderr,
            )
        print(
            "If this is expected (intentional tradeoff), refresh the committed "
            "BENCH_harness.json with a full-quota `bench --json` run and say why "
            "in the commit message.",
            file=sys.stderr,
        )
        return False
    print(f"\nbench guard: {len(shared)} micros within {RATIO:.0f}x of baseline")
    return True


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
            "the pool.",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print(
            f"speedup floor: aggregate {aggregate:.2f}x >= {AGGREGATE_FLOOR:.1f}x "
            "and every figure at parity or better"
        )
    return ok


def check_throughput(doc):
    tp = doc.get("throughput")
    if not tp:
        print("\nthroughput floor: no throughput section in fresh run; skipping")
        return True

    base = tp.get("baseline_committed_per_s", 0.0)
    batched = tp.get("batched_committed_per_s", 0.0)
    ratio = batched / base if base > 0 else float("inf")
    print(
        f"\nthroughput: {base:.1f} committed/s baseline vs {batched:.1f} "
        f"batched at {tp.get('rate', 0):.0f} offered/s "
        f"({tp.get('txns', 0)} txns) = {ratio:.2f}x"
    )
    ok = True
    if not tp.get("verified", False):
        print(
            "throughput floor: a saturation run failed its oracle check",
            file=sys.stderr,
        )
        ok = False
    if ratio < THROUGHPUT_FLOOR:
        print(
            f"throughput floor: batched mode sustains only {ratio:.2f}x the "
            f"baseline's committed txns/s at saturation (floor "
            f"{THROUGHPUT_FLOOR:.1f}x) — batching/pipelining is not paying "
            "for itself.",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print(
            f"throughput floor: {ratio:.2f}x >= {THROUGHPUT_FLOOR:.1f}x, "
            "both runs oracle-clean"
        )
    return ok


def check_long_fill(doc):
    lf = doc.get("long_fill")
    if not lf:
        print(
            "\nlong-fill floor: no long_fill section in fresh run; skipping "
            "(refresh the baseline with a current `bench --json` run to arm it)"
        )
        return True

    base_ratio = lf.get("vs_baseline", 0.0)
    scaling = lf.get("groups_scaling", 0.0)
    print(
        f"\nlong fill: {lf.get('committed_per_s', 0.0):.1f} committed/s at "
        f"{lf.get('rate', 0):.0f} offered/s = {base_ratio:.2f}x baseline, "
        f"{lf.get('vs_batched', 0.0):.2f}x batched (informational), "
        f"p50 {lf.get('p50_ms', 0.0):.1f}ms, {lf.get('batches', 0)} batches"
    )
    print(
        f"long-fill groups: {lf.get('groups1_committed_per_s', 0.0):.1f} -> "
        f"{lf.get('groups4_committed_per_s', 0.0):.1f} committed/s from 1 to 4 "
        f"groups at {lf.get('groups_rate', 0):.0f} offered/s = {scaling:.2f}x"
    )
    ok = True
    if not lf.get("verified", False):
        print("long-fill floor: a long-fill run failed its oracle check", file=sys.stderr)
        ok = False
    if base_ratio < THROUGHPUT_FLOOR:
        print(
            f"long-fill floor: a long fill window sustains only {base_ratio:.2f}x "
            f"the unbatched baseline at saturation (floor "
            f"{THROUGHPUT_FLOOR:.1f}x) — the window is not paying for itself.",
            file=sys.stderr,
        )
        ok = False
    if scaling < GROUPS_FLOOR:
        print(
            f"long-fill floor: 4 groups lift aggregate goodput only {scaling:.2f}x "
            f"over 1 group (floor {GROUPS_FLOOR:.1f}x) — per-group drainers "
            "are not composing.",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print(
            f"long-fill floor: {base_ratio:.2f}x >= {THROUGHPUT_FLOOR:.1f}x baseline "
            f"and groups {scaling:.2f}x >= {GROUPS_FLOOR:.1f}x, all runs oracle-clean"
        )
    return ok


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} BASELINE.json FRESH.json")
    baseline = load(sys.argv[1])
    fresh = load(sys.argv[2])

    ok = check_micros(micros(baseline), micros(fresh))
    ok = check_speedup(fresh) and ok
    ok = check_throughput(fresh) and ok
    ok = check_long_fill(fresh) and ok
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
