"""Compare two ``run.py --out`` result files, metric by metric.

Usage::

    python benchmarks/e2e/compare.py parent.json change.json

For every (workload, end-to-end metric) pair it prints both sides'
median and quartiles and a verdict against the metric's bound in
BENCHMARK.json:

* ``worse`` — the change's median is worse than the parent's by more
  than the bound.  Deterministic (simulated) metrics compare exactly,
  so any move in the worse direction is ``worse``;
* ``unresolved`` — a side's own spread (quartile distance over median)
  exceeds the bound, so the runs cannot tell, unless every run of the
  change reads better than every run of the parent;
* ``ok`` — otherwise.

Output digests are compared per workload too.  Exits 1 if any pair is
``worse`` or a digest changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import CONTRACT, END_TO_END


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated within the data (a set is often
    only 3 reps); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(a: list, b: list, better: str, bound: float,
            deterministic: bool) -> str:
    sign = 1.0 if better == "higher" else -1.0
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    if deterministic:
        return "worse" if sign * (mb - ma) < 0 else "ok"
    if all(sign * (y - x) > 0 for x in a for y in b):
        return "ok"
    for side in (a, b):
        q1, m, q3 = quartiles(side)
        if m and (q3 - q1) / abs(m) > bound:
            return "unresolved"
    return "worse" if sign * (mb - ma) < -bound * abs(ma) else "ok"


def compare(parent: dict, change: dict, bounds: dict) -> tuple[list, bool]:
    """Rows of the comparison and whether anything got worse."""
    rows = []
    bad = False
    for workload, pa in parent["workloads"].items():
        pb = change["workloads"].get(workload)
        if pb is None:
            rows.append(f"{workload}: missing from the change's results")
            bad = True
            continue
        da, db = pa["reps"][0]["digest"], pb["reps"][0]["digest"]
        same = "same" if da == db else "CHANGED"
        rows.append(f"{workload}: digest {da[:12]} -> {db[:12]} ({same})")
        bad |= da != db
        for name, (unit, better, deterministic) in END_TO_END.items():
            a, b = pa["end_to_end"][name], pb["end_to_end"][name]
            bound = bounds.get(name, 0.0)
            v = verdict(a, b, better, bound, deterministic)
            bad |= v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            rows.append(
                f"  {name:<17} {unit:<9} "
                f"{qa[1]:>11.6g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                f"{qb[1]:>11.6g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
                f"bound {'exact' if deterministic else f'{bound:.0%}':>5}  "
                f"{v}")
    return rows, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(CONTRACT) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    with open(args.parent) as fh:
        parent = json.load(fh)
    with open(args.change) as fh:
        change = json.load(fh)
    rows, bad = compare(parent, change, bounds)
    print(f"{'':<20}{'':<10}{'parent median [q1, q3]':>30}  "
          f"{'change median [q1, q3]':>28}")
    print("\n".join(rows))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
