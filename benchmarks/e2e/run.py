"""End-to-end benchmark of the simulator: four workloads, host and
simulated metrics, and a traced per-layer ledger.

Report mode (all workloads, a fixed number of reps each)::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed N] [--reps 3]
        [--out results.json] [--trace] [--trace-out spans.json]

Time-bounded mode (one workload, reps until ``--seconds`` are spent; the
last line of output is a one-line JSON summary)::

    python3 benchmarks/e2e/run.py --scale 0.25 --workload verbs_mix
        --seed 3 --seconds 25 --trace 0

Every rep runs in a fresh child process (``rep.py``), one at a time.
Every rep's outputs are checked: workload invariants on every seed, and
the output digest against ``pins.json`` on seed 0.  A failed check exits
non-zero.  ``--trace`` adds traced reps (cProfile + counting wrappers),
which must reproduce the untraced digest and event count exactly.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = ROOT / "BENCHMARK.json"
PINS = HERE / "pins.json"

WORKLOADS = ("serve_bursty", "verbs_mix", "txn_contended", "faults_lossy")

#: End-to-end metrics: name -> (unit, better, deterministic).  Host
#: metrics vary from rep to rep (see ``run_value``); simulated ones
#: repeat exactly.
END_TO_END = {
    "host_ops_per_s": ("ops/s", "higher", False),
    "setup_s": ("s", "lower", False),
    "peak_rss_mb": ("MB", "lower", False),
    "events_per_op": ("events/op", "lower", True),
    "sim_goodput_mops": ("Mops/s", "higher", True),
    "sim_p50_us": ("sim_us", "lower", True),
    "sim_p99_us": ("sim_us", "lower", True),
    "sim_p999_us": ("sim_us", "lower", True),
    "success_frac": ("fraction", "higher", True),
    "failed_frac": ("fraction", "lower", True),
}

_LAYERS = ("sim", "hw", "memory", "verbs", "verbs.express", "tenancy", "load",
           "apps", "workloads", "other")

#: Per-layer metrics: name -> unit.  The first group comes from traced
#: reps; the post-run counters from untraced reps, at no cost.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in _LAYERS},
    **{f"{layer}.self_share": "fraction" for layer in _LAYERS},
    "trace_overhead_frac": "fraction",
    "sim.processes_per_op": "processes/op",
    "sim.call_at_per_op": "calls/op",
    "verbs.express_frac": "fraction",
    "tenancy.queue_p50_us": "sim_us",
    "tenancy.queue_p99_us": "sim_us",
    "verbs.op_p50_us": "sim_us",
    "verbs.op_p99_us": "sim_us",
    # post-run counters
    "hw.sram.hit_frac": "fraction",
    "hw.rnic.tx_util": "fraction",
    "hw.rnic.rx_util": "fraction",
    "hw.rnic.atomic_util": "fraction",
    "hw.packets_dropped": "count",
    "verbs.retransmissions": "count",
    "verbs.reconnects": "count",
    "verbs.fatal_errors": "count",
    "tenancy.shed_frac": "fraction",
    "load.cache_hit_frac": "fraction",
    "apps.txn.abort_frac": "fraction",
    "workloads.gen_s": "s",
}

#: A child that has not finished by then is killed (the driver's limit
#: for one invocation is 180 s).
CHILD_TIMEOUT_S = 170


class RepFailed(RuntimeError):
    """A child process exited non-zero or printed no record."""


# ------------------------------------------------------------------ reps
def run_rep(workload: str, seed: int, scale: float, trace: bool,
            trace_out: str = "") -> dict:
    """Run one rep in a fresh child process and return its record."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale),
           "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload} rep (seed {seed}) was killed after "
                        f"{CHILD_TIMEOUT_S} s") from exc
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{workload} rep (seed {seed}) exited "
                        f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    rec = json.loads(lines[-1])
    rec["wall_s"] = wall
    rec["success_frac"] = rec["delivered"] / rec["attempted"]
    rec["failed_frac"] = 1.0 - rec["success_frac"]
    return rec


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def check_reps(workload: str, seed: int, scale: float, reps: list,
               traced: list, pins: dict) -> list[str]:
    """Every problem with a workload's reps (empty == correct)."""
    problems = []
    for rec in reps + traced:
        problems.extend(f"{workload}: {v}" for v in rec["violations"])
    ref = reps[0]
    for rec in reps[1:]:
        if rec["digest"] != ref["digest"] or rec["events"] != ref["events"]:
            problems.append(f"{workload}: reps disagree (digest "
                            f"{ref['digest'][:12]} vs {rec['digest'][:12]})")
    for rec in traced:
        if rec["digest"] != ref["digest"] or rec["events"] != ref["events"]:
            problems.append(
                f"{workload}: traced rep changed the outputs (digest "
                f"{rec['digest'][:12]} vs {ref['digest'][:12]}, events "
                f"{rec['events']} vs {ref['events']})")
        layers = rec["layers"]
        total = sum(layers[f"{layer}.self_s"] for layer in _LAYERS)
        if abs(total - layers["profiled_s"]) > 1e-6 * max(1.0, total):
            problems.append(f"{workload}: layer self times sum to {total}, "
                            f"cProfile total {layers['profiled_s']}")
    pin = pins.get(repr(float(scale)), {}).get(workload) if seed == 0 \
        else None
    if pin is not None and ref["digest"] != pin:
        problems.append(f"{workload}: digest {ref['digest'][:12]} does not "
                        f"match the seed-0 pin {pin[:12]}")
    return problems


# ------------------------------------------------------------ aggregation
def run_value(name: str, values: list) -> float:
    """A time-bounded run's value of an end-to-end metric.  Throughput is
    the best rep: other tenants of the host only ever slow a rep down, and
    the best rep is the one they disturbed least.  Everything else is the
    median over reps."""
    return max(values) if name == "host_ops_per_s" else median(values)


def end_to_end(reps: list) -> dict:
    """name -> list of per-rep values (untraced reps only)."""
    return {name: [rec[name] for rec in reps] for name in END_TO_END}


def per_layer(reps: list, traced: list) -> dict:
    """name -> median value: ledger metrics from traced reps, post-run
    counters from untraced reps."""
    out = {}
    for name in PER_LAYER:
        if name == "trace_overhead_frac":
            continue
        if name in traced[0]["layers"]:
            out[name] = median([r["layers"][name] for r in traced])
        elif name == "workloads.gen_s":
            out[name] = median([r[name] for r in reps])
        else:
            out[name] = median([r["counters"][name] for r in reps])
    out["trace_overhead_frac"] = (median([r["run_s"] for r in traced])
                                  / median([r["run_s"] for r in reps]) - 1.0)
    return out


# --------------------------------------------------------------- printing
def _fmt(v: float) -> str:
    return f"{v:.6g}"


def print_table(results: dict) -> None:
    print(f"{'workload':<14} {'metric':<17} {'unit':<10} {'median':>12} "
          f"{'min':>12} {'max':>12}")
    for workload, res in results.items():
        for name, values in res["end_to_end"].items():
            unit = END_TO_END[name][0]
            print(f"{workload:<14} {name:<17} {unit:<10} "
                  f"{_fmt(median(values)):>12} {_fmt(min(values)):>12} "
                  f"{_fmt(max(values)):>12}")
        ref = res["reps"][0]
        print(f"{workload:<14} samples {ref['samples']}, outcomes "
              f"{ref['outcomes']}, digest {ref['digest']}")


def print_ledger(workload: str, layers: dict) -> None:
    print(f"per-layer ledger: {workload}")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<26} {_fmt(layers[name]):>12} {unit}")


# ------------------------------------------------------------------ modes
def _trace_path(trace_out: str, workload: str, several: bool) -> str:
    if not trace_out or not several:
        return trace_out
    stem, dot, suffix = trace_out.rpartition(".")
    return f"{stem}.{workload}.{suffix}" if dot else f"{trace_out}.{workload}"


def report_mode(args, pins: dict) -> int:
    """Fixed reps per workload, a table of every metric, optional ledger."""
    started = datetime.datetime.now().isoformat(timespec="seconds")
    results = {}
    for workload in args.workload:
        reps = []
        for i in range(args.reps):
            rec = run_rep(workload, args.seed, args.scale, False)
            reps.append(rec)
            print(f"# {workload} rep {i + 1}/{args.reps}: setup "
                  f"{rec['setup_s']:.2f} s, run {rec['run_s']:.2f} s",
                  flush=True)
        results[workload] = {"reps": reps, "traced": [],
                             "end_to_end": end_to_end(reps)}
    # Traced reps run after every untraced one, so their three- to
    # five-fold longer CPU bursts sit outside the untraced measurements.
    several = len(args.workload) > 1
    for workload in args.workload if args.trace else ():
        res = results[workload]
        res["traced"].append(run_rep(
            workload, args.seed, args.scale, True,
            _trace_path(args.trace_out, workload, several)))
        res["per_layer"] = per_layer(res["reps"], res["traced"])
        print(f"# {workload} traced rep: run "
              f"{res['traced'][0]['run_s']:.2f} s", flush=True)
    problems = []
    for workload, res in results.items():
        problems += check_reps(workload, args.seed, args.scale, res["reps"],
                               res["traced"], pins)
    print_table(results)
    for workload, res in results.items():
        if "per_layer" in res:
            print_ledger(workload, res["per_layer"])
    if args.out:
        meta = {"date": started, "nproc": os.cpu_count(),
                "python": platform.python_version(), "seed": args.seed,
                "scale": args.scale, "reps": args.reps}
        with open(args.out, "w") as fh:
            json.dump({"meta": meta, "workloads": results}, fh, indent=1)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return 1 if problems else 0


def timed_mode(args, pins: dict) -> int:
    """Reps of one workload until ``--seconds`` are spent; the last line
    is the JSON summary of the contract in BENCHMARK.json."""
    (workload,) = args.workload
    with open(CONTRACT) as fh:
        contract = json.load(fh)
    deadline = time.perf_counter() + args.seconds
    # Alternate untraced and traced reps (with --trace 1); each kind runs
    # at least once, and no rep starts unless its kind's longest rep so
    # far still fits before the deadline.
    kinds = (False, True) if args.trace else (False,)
    reps, traced = [], []
    longest = {False: 0.0, True: 0.0}
    progressed = True
    while progressed:
        progressed = False
        for kind in kinds:
            done = traced if kind else reps
            if done and time.perf_counter() + longest[kind] > deadline:
                continue
            rec = run_rep(workload, args.seed, args.scale, kind,
                          args.trace_out if kind and not done else "")
            done.append(rec)
            longest[kind] = max(longest[kind], rec["wall_s"])
            progressed = True
            print(f"# {'traced' if kind else 'untraced'} rep: setup "
                  f"{rec['setup_s']:.3f} s, run {rec['run_s']:.3f} s, "
                  f"digest {rec['digest'][:16]}", flush=True)
    problems = check_reps(workload, args.seed, args.scale, reps, traced, pins)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"# digest {reps[0]['digest']} (seed {args.seed}, scale "
          f"{args.scale:g}, {len(reps)} untraced + {len(traced)} traced reps)")
    if args.trace:
        values = per_layer(reps, traced)
        wanted = contract["per_layer"]
    else:
        values = {name: run_value(name, v)
                  for name, v in end_to_end(reps).items()}
        wanted = contract["end_to_end"]
    all_reps = reps + traced
    attempted = sum(r["attempted"] for r in all_reps)
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(summary))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].replace("\n", " "))
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (digests are pinned for seed 0)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (default 1.0)")
    parser.add_argument("--reps", type=int, default=3,
                        help="untraced reps per workload (report mode)")
    parser.add_argument("--seconds", type=float,
                        help="time-bounded mode: run reps of one workload "
                             "for this many seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add traced reps and print the per-layer ledger")
    parser.add_argument("--trace-out", default="",
                        help="write the traced spans as Chrome-trace JSON")
    parser.add_argument("--out", default="",
                        help="write every rep's record as JSON (compare.py "
                             "reads it)")
    args = parser.parse_args(argv)
    if args.scale <= 0 or args.reps < 1:
        parser.error("--scale must be > 0 and --reps >= 1")
    args.workload = args.workload or list(WORKLOADS)
    if args.trace_out:
        # The child runs in the repository root; pass it an absolute path.
        args.trace_out = str(Path(args.trace_out).resolve())
    for path in (args.out, args.trace_out):
        if path:
            Path(path).resolve().parent.mkdir(parents=True, exist_ok=True)
    pins = load_pins()
    try:
        if args.seconds is not None:
            if len(args.workload) != 1:
                parser.error("--seconds runs exactly one --workload")
            return timed_mode(args, pins)
        return report_mode(args, pins)
    except RepFailed as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
