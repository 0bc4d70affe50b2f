"""Scenario timing, schedule digests, and the regression gate.

See the package docstring for the workflow; docs/PERFORMANCE.md for how
the numbers should be read.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import sys
import time
from typing import Callable, Optional

from repro.bench import TARGETS
from repro.sim import Simulator

__all__ = [
    "DEFAULT_TOLERANCE",
    "EVENTS_PER_OP_TOLERANCE",
    "SCENARIOS",
    "SPEEDUP_CORES",
    "SPEEDUP_FLOOR",
    "check",
    "load_baseline",
    "main",
    "run_scenarios",
]

#: Gate threshold: fail when events/sec drops by more than this fraction.
DEFAULT_TOLERANCE = 0.20

#: Gate threshold for events per completed op.  The metric is fully
#: deterministic (both counters are simulated), so any real increase is
#: a hot-path regression; the 1% slack only absorbs the 2-decimal
#: rounding in the baseline file.
EVENTS_PER_OP_TOLERANCE = 0.01

#: Parallel-campaign gate: the warm worker pool must deliver at least
#: this speedup over serial with 4 jobs.  Enforced only when the run
#: actually had >= SPEEDUP_CORES usable cores (recorded in the metrics
#: block) — a 1-core CI runner physically cannot parallelize, but it
#: still records the measured number.
SPEEDUP_FLOOR = 1.5
SPEEDUP_CORES = 4

#: Default location of the committed baseline (repo root when invoked via
#: the Makefile targets).
DEFAULT_BASELINE = "BENCH_perf.json"


# --------------------------------------------------------------- scenarios
def _engine_dispatch(horizon_ns: float = 2_000_000.0) -> dict:
    """Pure dispatch-loop microbenchmark: no cost model, no verbs.

    A handful of processes doing bare-delay sleeps — the cheapest event
    the engine knows — so the number isolates the per-event constant
    factor of ``Simulator.run`` itself from model bytecode.
    """
    sim = Simulator()

    def sleeper() -> object:
        while True:
            yield 10.0

    for _ in range(8):
        sim.process(sleeper())
    sim.run(until=horizon_ns)
    # The digest covers the simulated outcome, not the wall clock.
    return {"events": sim.events_processed, "now": sim.now}


def _sweep_parallel() -> dict:
    """Campaign merge determinism + warm-pool speedup: fig1 quick.

    Runs the same point campaign twice — inline and fanned out over a
    warm 4-worker pool — and digests the *merged figures*, which must be
    bit-identical.  A mismatch fails here (and would fail the gate too,
    since the scenario digest covers the figure digest).  The wall-clock
    comparison lands in ``_metrics``, which is excluded from the digest:
    speedup depends on core count, determinism does not.  The metrics
    block also records the usable core count — ``check`` enforces the
    ``SPEEDUP_FLOOR`` only when ``cores >= SPEEDUP_CORES``.
    """
    from repro.bench import parallel

    serial = parallel.run_campaign("fig1", quick=True, jobs=1,
                                   cache_dir=None)
    with parallel.WorkerPool(4) as pool:
        pooled = parallel.run_campaign("fig1", quick=True, jobs=4,
                                       cache_dir=None, pool=pool)
    d_serial = parallel.figures_digest(serial.figures)
    d_pooled = parallel.figures_digest(pooled.figures)
    if d_serial != d_pooled:
        raise AssertionError(
            "parallel merge is not deterministic: "
            f"serial {d_serial[:12]} != jobs=4 {d_pooled[:12]}")
    serial_rate = serial.n_points / serial.wall_s if serial.wall_s else 0.0
    pooled_rate = pooled.n_points / pooled.wall_s if pooled.wall_s else 0.0
    return {
        "figures_digest": d_serial,
        "n_points": serial.n_points,
        "_table": "\n".join(f.to_text() for f in serial.figures),
        "_metrics": {
            "serial_points_per_sec": round(serial_rate, 2),
            "jobs4_points_per_sec": round(pooled_rate, 2),
            "jobs4_speedup": round(pooled_rate / serial_rate, 2)
            if serial_rate else 0.0,
            "cores": parallel.default_jobs(),
        },
    }


def _series(fig) -> dict:
    return {
        "name": fig.name,
        "x": [str(x) for x in fig.x_values],
        "series": {s.label: s.values for s in fig.series},
    }


def _figure(module_name: str) -> Callable[[], dict]:
    def runner() -> dict:
        module = importlib.import_module(module_name)
        if hasattr(module, "run"):
            fig = module.run(quick=True)
            # The rendered table is digested separately from the
            # schedule: a table change is an output regression and is
            # never a legitimate reason to refresh the baseline.
            return {**_series(fig), "_table": fig.to_text()}
        # Multi-figure targets (fig10) expose points/run_point/assemble
        # instead of a single run().
        figs = module.assemble([module.run_point(pt, quick=True)
                                for pt in module.points(quick=True)],
                               quick=True)
        return {"figures": [_series(f) for f in figs],
                "_table": "\n".join(f.to_text() for f in figs)}
    return runner


#: The cheap paper tables, run only in the full scenario set.  They take
#: well under a second each, so their events/sec is timer noise and is
#: not gated; their digests and event counts are.
TABLE_ROWS = ("fig4", "fig8", "fig10", "fig18", "table2", "table3",
              "breakdown")

#: Scenario name -> zero-arg callable returning a JSON-serializable
#: outcome (digested for the schedule-identity gate).  Insertion order is
#: execution order; "quick" mode keeps the starred subset.
SCENARIOS: dict[str, Callable[[], dict]] = {
    "engine_dispatch": _engine_dispatch,
    "fig1": _figure("repro.bench.fig01_throttling"),
    "fig5": _figure("repro.bench.fig05_threads"),
    "ext6": _figure("repro.bench.ext6_multitenant"),
    "ext7": _figure("repro.bench.ext7_fault_recovery"),
    "ext8": _figure("repro.bench.ext8_txn"),
    "ext9": _figure("repro.bench.ext9_fabric_scale"),
    "ext10": _figure("repro.bench.ext10_open_loop"),
    "sweep_parallel": _sweep_parallel,
    **{name: _figure(TARGETS[name]) for name in TABLE_ROWS},
}

#: The smoke-friendly subset (`make perf-quick`).  sweep_parallel is in
#: it so the warm-pool speedup floor is asserted on every smoke run.
QUICK_SCENARIOS = ("engine_dispatch", "fig5", "ext8", "ext9", "ext10",
                   "sweep_parallel")


def _digest(outcome: dict) -> str:
    """Machine-independent SHA-256 of a scenario outcome.

    ``repr`` round-trips floats exactly, so two runs digest equal iff
    every simulated number is bit-identical.
    """
    blob = json.dumps(outcome, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_scenarios(names: Optional[list[str]] = None) -> dict:
    """Time the named scenarios (default: all); returns a baseline dict."""
    from repro.verbs.qp import QueuePair

    out: dict = {"format": 1, "scenarios": {}}
    for name in names or list(SCENARIOS):
        fn = SCENARIOS[name]
        gc.collect()  # start each scenario from a clean allocator state
        events_before = Simulator.total_events
        ops_before = QueuePair.total_completions
        t0 = time.perf_counter()
        outcome = fn()
        wall = time.perf_counter() - t0
        events = Simulator.total_events - events_before
        ops = QueuePair.total_completions - ops_before
        # ``_metrics`` carries wall-clock-derived numbers (e.g. parallel
        # speedup) that vary across machines; keep them out of the digest.
        # ``_table`` is the rendered bench table, digested on its own so
        # the gate can tell "schedule moved" from "output moved".
        metrics = outcome.pop("_metrics", None) or {}
        table = outcome.pop("_table", None)
        if ops:
            # Deterministic hot-path cost: dispatched events per
            # completed verbs op.  Lives in the metrics block (it is not
            # part of the simulated outcome) but is gated, unlike the
            # wall-clock numbers around it.
            metrics["events_per_op"] = round(events / ops, 2)
        row = {
            "wall_s": round(wall, 4),
            "events": events,
            "events_per_sec": round(events / wall) if wall > 0 else 0,
            "digest": _digest(outcome),
        }
        if table is not None:
            row["table_digest"] = hashlib.sha256(
                table.encode()).hexdigest()
        if metrics:
            row["metrics"] = metrics
        out["scenarios"][name] = row
    return out


# -------------------------------------------------------------------- gate
def load_baseline(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if data.get("format") != 1:
        raise ValueError(f"{path} is not a perf baseline")
    return data


def check(baseline: dict, current: dict,
          tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Compare a fresh run against the committed baseline.

    Returns a list of human-readable failures (empty == gate passes):

    * an events/sec drop beyond ``tolerance`` — the fast path regressed
      (not gated for the sub-second :data:`TABLE_ROWS`);
    * a *table* digest mismatch — the rendered bench output changed.
      This is never legitimate: every optimization (including ones that
      change the event schedule) must leave the assembled tables
      bit-identical;
    * a *schedule* digest mismatch — the dispatched-event timeline
      changed.  Legitimate only when the event count moved deliberately
      (e.g. an event-elision optimization like the express lane); then
      refresh via ``make perf-update`` and note the change in the
      baseline.  Illegitimate if the tables moved too — see above;
    * an ``events_per_op`` increase beyond
      :data:`EVENTS_PER_OP_TOLERANCE` — the hot path is dispatching
      more events per completed verbs op;
    * a scenario missing from either side;
    * a ``jobs4_speedup`` below :data:`SPEEDUP_FLOOR` when the current
      run had at least :data:`SPEEDUP_CORES` usable cores — parallel
      campaigns must actually pay, not just merge deterministically.
    """
    failures: list[str] = []
    base = baseline["scenarios"]
    cur = current["scenarios"]
    for name, row in cur.items():
        metrics = row.get("metrics", {})
        if "jobs4_speedup" in metrics:
            cores = metrics.get("cores", 0)
            speedup = metrics["jobs4_speedup"]
            if cores >= SPEEDUP_CORES and speedup < SPEEDUP_FLOOR:
                failures.append(
                    f"{name}: jobs4_speedup {speedup}x is below the "
                    f"{SPEEDUP_FLOOR}x floor on {cores} cores — the warm "
                    "worker pool is not paying for its parallelism")
    for name in cur:
        if name not in base:
            failures.append(
                f"{name}: not in baseline (run `make perf-update`)")
            continue
        b, c = base[name], cur[name]
        if ("table_digest" in b and "table_digest" in c
                and c["table_digest"] != b["table_digest"]):
            failures.append(
                f"{name}: TABLE digest changed "
                f"({b['table_digest'][:12]} -> {c['table_digest'][:12]}) "
                "— the rendered bench output moved; this is an output "
                "regression and never a legitimate baseline refresh")
        if c["digest"] != b["digest"]:
            if c["events"] != b["events"]:
                failures.append(
                    f"{name}: schedule digest changed with the event "
                    f"count ({b['events']:,} -> {c['events']:,}); if "
                    "this is a deliberate event-elision change and the "
                    "tables are bit-identical, refresh via `make "
                    "perf-update` and note it in the baseline")
            else:
                failures.append(
                    f"{name}: schedule digest changed "
                    f"({b['digest'][:12]} -> {c['digest'][:12]}) at the "
                    "same event count — simulated outputs moved; "
                    "optimizations must be schedule-preserving")
        b_epo = b.get("metrics", {}).get("events_per_op")
        c_epo = c.get("metrics", {}).get("events_per_op")
        if b_epo and c_epo and c_epo > b_epo * (
                1.0 + EVENTS_PER_OP_TOLERANCE):
            failures.append(
                f"{name}: events/op rose {b_epo} -> {c_epo} — the hot "
                "path dispatches more events per completed op")
        floor = b["events_per_sec"] * (1.0 - tolerance)
        if name not in TABLE_ROWS and c["events_per_sec"] < floor:
            drop = 1.0 - c["events_per_sec"] / b["events_per_sec"]
            failures.append(
                f"{name}: {c['events_per_sec']:,} events/s is {drop:.0%} "
                f"below baseline {b['events_per_sec']:,} "
                f"(tolerance {tolerance:.0%})")
    return failures


def _print_table(data: dict, baseline: Optional[dict] = None) -> None:
    base = baseline["scenarios"] if baseline else {}
    print(f"{'scenario':<16} {'wall_s':>8} {'events':>10} "
          f"{'events/s':>12} {'vs base':>8}")
    for name, row in data["scenarios"].items():
        rel = ""
        if name in base and base[name]["events_per_sec"]:
            ratio = row["events_per_sec"] / base[name]["events_per_sec"]
            rel = f"{ratio:.2f}x"
        print(f"{name:<16} {row['wall_s']:>8.3f} {row['events']:>10,} "
              f"{row['events_per_sec']:>12,} {rel:>8}")


def _print_tracked(data: dict, baseline: Optional[dict] = None) -> None:
    """Tracked metrics: wall-clock-derived numbers like the
    parallel-sweep speedup, excluded from digests.  Most are
    informational; ``jobs4_speedup`` is gated against
    :data:`SPEEDUP_FLOOR` whenever the run had >= :data:`SPEEDUP_CORES`
    cores.  Falls back to the committed baseline for scenarios the
    current (e.g. --quick) run skipped."""
    cur = data["scenarios"]
    base = baseline["scenarios"] if baseline else {}
    lines = []
    for name in dict.fromkeys(list(cur) + list(base)):
        row, src = None, ""
        if "metrics" in cur.get(name, {}):
            row = cur[name]["metrics"]
        elif "metrics" in base.get(name, {}):
            row, src = base[name]["metrics"], " [baseline]"
        if row:
            body = " ".join(f"{k}={v}" for k, v in row.items())
            lines.append(f"  {name}: {body}{src}")
    if lines:
        print(f"tracked metrics (jobs4_speedup gated at "
              f">={SPEEDUP_FLOOR}x on >={SPEEDUP_CORES} cores; "
              "the rest informational):")
        for line in lines:
            print(line)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.perf",
        description="fast-path performance harness (see docs/PERFORMANCE.md)")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_check = sub.add_parser("check", help="run scenarios and gate against "
                                           "the committed baseline")
    p_check.add_argument("--baseline", default=DEFAULT_BASELINE)
    p_check.add_argument("--tolerance", type=float,
                         default=DEFAULT_TOLERANCE)
    p_check.add_argument("--quick", action="store_true",
                         help=f"only {', '.join(QUICK_SCENARIOS)}")
    p_update = sub.add_parser("update", help="run all scenarios and rewrite "
                                             "the baseline")
    p_update.add_argument("--baseline", default=DEFAULT_BASELINE)
    p_run = sub.add_parser("run", help="run scenarios and print the table "
                                       "without gating")
    p_run.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    if args.cmd == "update":
        data = run_scenarios()
        with open(args.baseline, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        _print_table(data)
        _print_tracked(data)
        print(f"baseline written to {args.baseline}")
        return 0

    names = list(QUICK_SCENARIOS) if args.quick else None
    data = run_scenarios(names)
    if args.cmd == "run":
        _print_table(data)
        _print_tracked(data)
        return 0

    try:
        baseline = load_baseline(args.baseline)
    except FileNotFoundError:
        _print_table(data)
        print(f"no baseline at {args.baseline}; run `make perf-update` "
              "to create one")
        return 1
    _print_table(data, baseline)
    _print_tracked(data, baseline)
    failures = check(baseline, data, args.tolerance)
    if failures:
        print(f"\nPERF GATE FAILED ({len(failures)}):")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nperf gate passed: schedules identical, throughput within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
