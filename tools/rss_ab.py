"""A/B peak RSS of one end-to-end workload: a base revision against the
working tree.

Exports the base revision and the working tree (tracked files and
untracked ones that are not ignored) to two clean directories with
``git archive``, then runs ``benchmarks/e2e/rep.py`` from each in
alternating pairs: the base first on odd pairs, the change first on even
ones.  Prints each pair's ``peak_rss_mb`` and ``host_ops_per_s``, then, for
``peak_rss_mb``, ``host_ops_per_s`` and ``setup_s``, each side's median
and interquartile range, the pairs the change won in that metric's
better direction (ties count for neither side), and a verdict line: a
gain only when the change won at least nine tenths of the pairs and the
medians differ, in the better direction, by more than the base's
interquartile range.  Then prints each side's ``events_per_op``: a
change may remove events, so the two sides' counts may differ.  Exits
non-zero if any pair's output digest differs between the two sides, if
a side's event count differs from one of its reps to the next, if a
rep reports an invariant violation or fails, or if a seed-0 digest
misses the base's ``benchmarks/e2e/pins.json`` entry; a verdict of no
gain is not a failure.

Usage::

    python tools/rss_ab.py [--workload verbs_mix] [--scale 0.25]
        [--pairs 10] [--seed 0] [--base HEAD]

Both copies start without bytecode, so neither side is charged for
compiling ``repro`` more than the other.  Single reps swing with the
box's load; read the interquartile ranges, not one pair.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
E2E = Path("benchmarks") / "e2e"

#: The metrics summarised: (name, lower is better, format).
METRICS = (("peak_rss_mb", True, ".2f"), ("host_ops_per_s", False, ".0f"),
           ("setup_s", True, ".3f"))


def _git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(("git", *args), cwd=ROOT, env=env, check=True,
                          capture_output=True).stdout


def _working_tree() -> str:
    """A tree object of the working tree, built in a scratch index so the
    real index is left alone."""
    with tempfile.TemporaryDirectory(prefix="rss_ab-index-") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        _git("read-tree", "HEAD", env=env)
        _git("add", "-A", env=env)
        return _git("write-tree", env=env).decode().strip()


def export(treeish: str, dest: Path) -> Path:
    """Extract ``git archive treeish`` into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(("git", "archive", treeish), cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(("tar", "-x", "-C", str(dest)), stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    return dest


def rep(copy: Path, workload: str, seed: int, scale: float) -> dict:
    """One ``rep.py`` run from ``copy``; its JSON record."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        (sys.executable, str(copy / E2E / "rep.py"), "--workload", workload,
         "--seed", str(seed), "--scale", str(scale)),
        cwd=copy, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _spread(xs: list[float], fmt: str = ".2f") -> str:
    """``median [q1, q3]``."""
    if len(xs) < 2:
        return format(median(xs), fmt)
    q1, _, q3 = quantiles(xs, n=4)
    return (f"{format(median(xs), fmt)} "
            f"[{format(q1, fmt)}, {format(q3, fmt)}]")


def _iqr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = quantiles(xs, n=4)
    return q3 - q1


def verdict(base: list[float], change: list[float],
            lower_is_better: bool) -> tuple[int, bool]:
    """The pairs the change won, and whether it is a gain: it won at
    least nine tenths of the pairs, and the medians differ in the better
    direction by more than the base's interquartile range."""
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    gap = sign * (median(change) - median(base))
    return wins, 10 * wins >= 9 * len(base) and gap > _iqr(base)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="verbs_mix")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--base", default="HEAD",
                        help="revision to compare the working tree against")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    base_rev = _git("rev-parse", "--short", args.base).decode().strip()
    with tempfile.TemporaryDirectory(prefix="rss_ab-") as tmp:
        copies = {"base": export(args.base, Path(tmp) / "base"),
                  "change": export(_working_tree(), Path(tmp) / "change")}
        pin = None
        if args.seed == 0:
            pins = json.loads((copies["base"] / E2E / "pins.json").read_text())
            pin = pins.get(repr(args.scale), {}).get(args.workload)
        print(f"{args.workload} scale {args.scale} seed {args.seed}: "
              f"base {base_rev} vs the working tree, {args.pairs} pairs")
        print(f"{'pair':>4} {'first':<6} {'base MB':>9} {'change MB':>9} "
              f"{'delta':>7} {'base ops/s':>10} {'change ops/s':>12}")
        recs_by_side: dict[str, list[dict]] = {"base": [], "change": []}
        mismatches = []
        for i in range(1, args.pairs + 1):
            order = ("base", "change") if i % 2 else ("change", "base")
            recs = {side: rep(copies[side], args.workload, args.seed,
                              args.scale) for side in order}
            for side, rec in recs.items():
                recs_by_side[side].append(rec)
            b, c = recs["base"], recs["change"]
            if b["digest"] != c["digest"]:
                mismatches.append(
                    f"pair {i}: digest {b['digest']} != {c['digest']}")
            for side, rec in recs.items():
                first = recs_by_side[side][0]["events"]
                if rec["events"] != first:
                    mismatches.append(f"pair {i}: {side} events "
                                      f"{rec['events']} != {first} in pair 1")
                if rec["violations"]:
                    mismatches.append(f"pair {i}: {side} violations "
                                      f"{rec['violations']}")
                if pin is not None and rec["digest"] != pin:
                    mismatches.append(f"pair {i}: {side} digest "
                                      f"{rec['digest']} misses the pin {pin}")
            print(f"{i:>4} {order[0]:<6} {b['peak_rss_mb']:>9.2f} "
                  f"{c['peak_rss_mb']:>9.2f} "
                  f"{c['peak_rss_mb'] - b['peak_rss_mb']:>+7.2f} "
                  f"{b['host_ops_per_s']:>10.0f} "
                  f"{c['host_ops_per_s']:>12.0f}", flush=True)

    for metric, lower, fmt in METRICS:
        base = [rec[metric] for rec in recs_by_side["base"]]
        change = [rec[metric] for rec in recs_by_side["change"]]
        wins, gain = verdict(base, change, lower)
        better = "lower" if lower else "higher"
        gap = median(change) - median(base)
        print(f"{metric} median [IQR]: base {_spread(base, fmt)}, "
              f"change {_spread(change, fmt)}; change {better} in "
              f"{wins}/{args.pairs} pairs")
        print(f"  verdict {metric}: "
              + ("GAIN" if gain else "no gain")
              + f" (wins {wins}/{args.pairs}, need >= 9/10; median gap "
              f"{format(gap, '+' + fmt)} vs base IQR "
              f"{format(_iqr(base), fmt)})")
    print("events_per_op: " + ", ".join(
        f"{side} {recs[0]['events_per_op']:.3f} ({recs[0]['events']} events)"
        for side, recs in recs_by_side.items()))
    for line in mismatches:
        print(f"FAIL {line}")
    if mismatches:
        return 1
    print("digests equal in every pair, event counts equal within each side"
          + (", seed-0 pin matched" if pin is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
