#!/usr/bin/env python3
"""Compares benchmark results: N result files per side, each written by
benchmark/run.sh (all workloads of one run).

    python3 benchmark/compare.py --base a1.json a2.json ... --head b1.json ...

For every (workload, metric) it prints each side's median and quartiles
(statistics.quantiles, n=4) and, for end-to-end metrics, a verdict against
the metric's bound in BENCHMARK.json:

    ok           the head's median is within the bound of the base's
    REGRESSION   the head's median is worse by more than the bound
    better       the head's median is better by more than the bound, or
                 every head run beats every base run
    unresolved   a side's interquartile range is wider than the bound
                 (and the runs do not separate completely)

Per-layer metrics have no bound and get no verdict. With only --base, it
prints each metric's median, quartiles and spread (IQR / median).
Exits 1 on a regression or an incorrect run.
"""
import argparse
import json
import os
import statistics
import sys


def load_runs(paths):
    """workload -> metric -> [values]; plus the number of incorrect runs."""
    runs = {}
    incorrect = 0
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for workload, result in doc.get("workloads", {}).items():
            if not result.get("correct", False):
                incorrect += 1
                print(f"INCORRECT: {path}: workload {workload}")
            for name, metric in result.get("metrics", {}).items():
                runs.setdefault(workload, {}).setdefault(name, []).append(
                    float(metric["value"]))
    return runs, incorrect


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, head, bound, lower_is_better):
    base_med = statistics.median(base)
    head_med = statistics.median(head)
    sign = 1.0 if lower_is_better else -1.0
    # Positive = the head is worse.
    worse = sign * (head_med - base_med) / abs(base_med) if base_med else 0.0
    all_better = (max(head) < min(base)) if lower_is_better else (
        min(head) > max(base))
    if all_better and worse < 0:
        return worse, "better"
    if max(spread(base), spread(head)) > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    if worse < -bound:
        return worse, "better"
    return worse, "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="*", default=[])
    parser.add_argument(
        "--benchmark",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = [(m, True) for m in spec["end_to_end"]] + [
        (m, False) for m in spec["per_layer"]]

    base, bad = load_runs(args.base)
    head, bad_head = load_runs(args.head)
    bad += bad_head
    regressions = 0
    fmt = "{:<15} {:<32} {:>30} {:>30} {:>8} {}"
    if head:
        print(fmt.format("workload", "metric", "base median [q1, q3]",
                         "head median [q1, q3]", "change", "verdict"))
    else:
        print("{:<15} {:<32} {:>36} {:>8} {:>6}".format(
            "workload", "metric", "median [q1, q3]", "spread", "runs"))
    for workload in sorted(set(base) | set(head)):
        for metric, has_bound in metrics:
            name = metric["name"]
            b = base.get(workload, {}).get(name)
            h = head.get(workload, {}).get(name)
            if not b:
                continue
            if not head:
                med, q1, q3 = summary(b)
                print("{:<15} {:<32} {:>36} {:>8.3f} {:>6}".format(
                    workload, name, f"{med:.6g} [{q1:.6g}, {q3:.6g}]",
                    spread(b), len(b)))
                continue
            if not h:
                continue
            bm, bq1, bq3 = summary(b)
            hm, hq1, hq3 = summary(h)
            lower = metric["better"] == "lower"
            if has_bound:
                worse, word = verdict(b, h, metric["bound"], lower)
                regressions += word == "REGRESSION"
            else:
                sign = 1.0 if lower else -1.0
                worse = sign * (hm - bm) / abs(bm) if bm else 0.0
                word = "-"
            print(fmt.format(workload, name, f"{bm:.6g} [{bq1:.6g}, {bq3:.6g}]",
                             f"{hm:.6g} [{hq1:.6g}, {hq3:.6g}]",
                             f"{-worse:+.1%}", word))
    if head:
        print("(change: positive = head better)")
    return 1 if regressions or bad else 0


if __name__ == "__main__":
    sys.exit(main())
