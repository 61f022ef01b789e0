#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

Usage: compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds files written by `e2e.exe --out` (or by run.py, in
_build/bench-out): one JSON line per workload and run. For every
(workload, metric) BENCHMARK.json declares, prints each side's median
and quartiles over its runs and a verdict:

  improved    the change wins at least 9 in 10 of the runs paired by
              seed (ties count for neither), with at least 10 pairs, and
              the medians differ by more than the parent's quartile
              spread; never when the change has more failed operations
  worse       end-to-end: the change's median is worse than the
              parent's by more than the metric's bound; per-layer: the
              parent wins by the rule for "improved"
  unresolved  end-to-end: the parent's own quartile spread is wider
              than the bound, unless every change run reads better than
              every parent run
  unchanged   otherwise

End-to-end metrics come from untraced runs; per-layer metrics from
traced runs when there are any. Exits 1 when an end-to-end metric is
worse or a run was not correct, else 0.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line.startswith("{"):
                    run = json.loads(line)
                    if "workload" in run and "metrics" in run:
                        runs.append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def by_seed(runs, metric):
    pairs = {}
    for r in runs:
        if metric in r["metrics"]:
            value = r["metrics"][metric]["value"]
            pairs.setdefault(r["seed"], []).append(value)
    return pairs


def verdict(metric, parent_runs, change_runs, extra_failures):
    ps = by_seed(parent_runs, metric["name"])
    cs = by_seed(change_runs, metric["name"])
    p = [v for vs in ps.values() for v in vs]
    c = [v for vs in cs.values() for v in vs]
    if not p or not c:
        return None
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    pq, cq = quartiles(p), quartiles(c)
    pairs = [
        (a, b)
        for seed in sorted(set(ps) & set(cs))
        for a, b in zip(ps[seed], cs[seed])
    ]
    spread = pq[2] - pq[0]

    def wins(beats):
        won = sum(1 for a, b in pairs if beats(a, b))
        return (
            len(pairs) >= 10
            and won >= 0.9 * len(pairs)
            and abs(cq[1] - pq[1]) > spread
        )

    rel = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
    worse_by = rel if lower else -rel
    bound = metric.get("bound")
    if wins(lambda a, b: better(b, a)) and not extra_failures:
        v = "improved"
    elif bound is None:
        v = "worse" if wins(better) else "unchanged"
    elif worse_by > bound:
        v = "worse"
    elif (
        pq[1]
        and spread / abs(pq[1]) > bound
        and not all(better(b, a) for a in p for b in c)
    ):
        v = "unresolved"
    else:
        v = "unchanged"
    return pq, cq, rel, v


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load_runs(args.parent), load_runs(args.change)
    failing = False
    for side, runs in (("parent", parent), ("change", change)):
        bad = [r for r in runs if not r["correct"]]
        if bad:
            failing = True
            print(f"{side}: {len(bad)} run(s) not correct", file=sys.stderr)

    print(
        f"{'workload':13} {'metric':30} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'delta':>8}  verdict"
    )
    for w in bench["workloads"]:
        name = w["name"]
        sides = {}
        for side, runs in (("parent", parent), ("change", change)):
            mine = [r for r in runs if r["workload"] == name]
            untraced = [r for r in mine if not r["trace"]]
            traced = [r for r in mine if r["trace"]]
            sides[side] = (untraced, traced or untraced)
        extra_failures = sum(r["failed"] for r in sides["change"][0]) > sum(
            r["failed"] for r in sides["parent"][0]
        )
        kinds = ((0, bench["end_to_end"]), (1, bench["per_layer"]))
        for kind, metrics in kinds:
            for m in metrics:
                got = verdict(
                    m, sides["parent"][kind], sides["change"][kind], extra_failures
                )
                if got is None:
                    continue
                pq, cq, rel, v = got
                if kind == 0 and v == "worse":
                    failing = True
                fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
                print(
                    f"{name:13} {m['name']:30} {fmt(pq):>34} {fmt(cq):>34} "
                    f"{100 * rel:+7.2f}%  {v}"
                )
    sys.exit(1 if failing else 0)


if __name__ == "__main__":
    main()
