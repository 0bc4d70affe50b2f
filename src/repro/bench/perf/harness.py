"""Scenario timing, schedule digests, and the regression gate.

See the package docstring for the workflow; docs/PERFORMANCE.md for how
the numbers should be read.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
import tracemalloc
from typing import Callable, Optional

from repro.bench import parallel
from repro.sim import Simulator
from repro.sim.engine import tally as engine_tally

__all__ = [
    "DEFAULT_TOLERANCE",
    "EVENTS_PER_OP_TOLERANCE",
    "SCENARIOS",
    "SPEEDUP_CORES",
    "SPEEDUP_FLOOR",
    "TRACED_PEAK_FLOOR_KB",
    "TRACED_PEAK_TOLERANCE",
    "check",
    "load_baseline",
    "main",
    "run_scenarios",
    "traced_peak_kb",
]

#: Gate threshold: fail when events/sec drops by more than this fraction.
DEFAULT_TOLERANCE = 0.20

#: Gate threshold for the per-op counts in ``_PER_OP_GATES``.  Both
#: are deterministic (events per op from simulated counters, cycles per
#: op from one collection at the scenario's end), so any real increase
#: is a regression; the 1% slack absorbs the 2-decimal rounding in the
#: baseline file.
EVENTS_PER_OP_TOLERANCE = 0.01

#: Per-op metrics gated against a rise, with what a rise means.
_PER_OP_GATES = (
    ("events_per_op",
     "the hot path dispatches more events per completed op"),
    ("cycles_per_op",
     "a per-op object is cyclic again and lives until run() returns"),
)

#: Per-layer rows (:func:`repro.bench.perf.census.layer_rows`) gated
#: layer by layer against a rise, with the same slack and what a rise
#: means.  A layer missing from a row counts as 0.
_LAYER_GATES = (
    ("events_by_layer", "the layer schedules more events per op"),
    ("calls_by_layer", "the layer makes more Python calls per op"),
)

#: Gate threshold for ``traced_peak_kb``: the tracemalloc peak of a
#: scenario's untimed run may rise by this fraction plus
#: ``TRACED_PEAK_FLOOR_KB`` before the gate fails.  Full runs under
#: ``PYTHONHASHSEED`` 0, 1 and 2 and a ``--quick`` run differed by at
#: most 1 KB on any row (docs/PERFORMANCE.md, "Per-row memory"); 8 B
#: more per op would raise fig5 by 116 KB.
TRACED_PEAK_TOLERANCE = 0.01
TRACED_PEAK_FLOOR_KB = 16

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
    serial = parallel.run_campaign("fig1")
    with parallel.WorkerPool(4) as pool:
        pooled = parallel.run_campaign("fig1", jobs=4, pool=pool)
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


def _figure(target: str) -> Callable[[], dict]:
    def runner() -> dict:
        figs = parallel.run_campaign(target).figures
        # The rendered table is digested separately from the schedule: a
        # table change is an output regression and is never a legitimate
        # reason to refresh the baseline.
        table = "\n".join(f.to_text() for f in figs)
        if len(figs) == 1:
            return {**parallel.figure_outcome(figs[0]), "_table": table}
        return {"figures": [parallel.figure_outcome(f) for f in figs],
                "_table": table}
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
    "fig1": _figure("fig1"),
    "fig5": _figure("fig5"),
    "ext6": _figure("ext6_multitenant"),
    "ext7": _figure("ext7_fault_recovery"),
    "ext8": _figure("ext8_txn"),
    "ext9": _figure("ext9_fabric_scale"),
    "ext10": _figure("ext10_open_loop"),
    "sweep_parallel": _sweep_parallel,
    **{name: _figure(name) for name in TABLE_ROWS},
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


def traced_peak_kb(fn: Callable[[], dict]) -> int:
    """The tracemalloc peak, in KB, of one untimed run of scenario
    ``fn`` with the collector paused as in the timed run: the most
    Python memory the scenario held at once, counted from its start."""
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if gc_was_enabled:
            gc.enable()
    return round(peak / 1024)


def run_scenarios(names: Optional[list[str]] = None,
                  traced: bool = False, layers: bool = False) -> dict:
    """Time the named scenarios (default: all); returns a baseline dict.

    With ``traced``, each scenario runs once more, untimed, to record
    ``traced_peak_kb`` (:func:`traced_peak_kb`).  With ``layers``, each
    scenario that completes ops runs twice more, untimed, under the
    census to record ``events_by_layer`` and ``calls_by_layer``
    (:func:`repro.bench.perf.census.layer_rows`)."""
    from repro.bench.perf import census
    from repro.verbs.qp import tally

    out: dict = {"format": 1, "scenarios": {}}
    for name in names or list(SCENARIOS):
        fn = SCENARIOS[name]
        gc.collect()  # start each scenario from a clean allocator state
        events_before = Simulator.total_events
        in_place_before = engine_tally.in_place
        ops_before = tally.completions
        stepped_before = tally.stepped
        # The collector stays off for the whole scenario, so one final
        # collection finds every object the scenario left in a cycle.
        # With it on, a pass over a live tuple of atomic values untracks
        # the tuple, and the count would hang on collection timing,
        # which hangs on what ran before: sweep_parallel read 0.23
        # cycles/op after the --quick list and 0.22 in the full one.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            outcome = fn()
            wall = time.perf_counter() - t0
            freed = gc.collect()
        finally:
            if gc_was_enabled:
                gc.enable()
        events = Simulator.total_events - events_before
        in_place = engine_tally.in_place - in_place_before
        ops = tally.completions - ops_before
        stepped = tally.stepped - stepped_before
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
            # Dispatches that ran from the engine's tail slot without a
            # heap round trip (not in ``events``); recorded, not gated.
            metrics["in_place_per_op"] = round(in_place / ops, 2)
            # Objects only the cyclic collector could free, per op.
            # ``Simulator.run`` pauses that collector, so per-op objects
            # must die by refcount: a rise means some per-op object
            # became cyclic again and now lives until the run ends.
            # What is left is each rig's own cycles.
            metrics["cycles_per_op"] = round(freed / ops, 2)
            # Share of completed WRs the express lane booked.
            metrics["express_frac"] = round(1.0 - stepped / ops, 4)
        if traced:
            metrics["traced_peak_kb"] = traced_peak_kb(fn)
        completions = None
        if layers and ops:
            rows, completions = census.layer_rows(name)
            metrics.update(rows)
        row = {
            "wall_s": round(wall, 4),
            "events": events,
            # Every dispatch, heap and in place: a scenario whose wakes
            # all run in place (ext7: ~50 heap entries) still times its
            # engine, not its timer.
            "events_per_sec": (round((events + in_place) / wall)
                               if wall > 0 else 0),
            "digest": _digest(outcome),
        }
        if completions is not None:
            # Every completion of every simulator: moves on a per-WR
            # change that no table shows.
            row["completions_digest"] = _digest(completions)
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
      (dispatches per wall second, in-place ones included; not gated
      for the sub-second :data:`TABLE_ROWS`);
    * a *table* digest mismatch — the rendered bench output changed.
      This is never legitimate: every optimization (including ones that
      change the event schedule) must leave the assembled tables
      bit-identical;
    * a *completions* digest mismatch — some WR completed differently
      (:mod:`repro.check.differential`'s digest of every completion, from
      the census's event-counting run; only when both sides recorded
      it).  Never legitimate for an optimization, even when every table
      holds;
    * a *schedule* digest mismatch — the dispatched-event timeline
      changed.  Legitimate only when the event count moved deliberately
      (e.g. an event-elision optimization like the express lane); then
      refresh via ``make perf-update`` and note the change in the
      baseline.  Illegitimate if the tables moved too — see above;
    * an ``events_per_op`` increase beyond
      :data:`EVENTS_PER_OP_TOLERANCE` — the hot path is dispatching
      more events per completed verbs op;
    * a ``cycles_per_op`` increase beyond the same slack — more objects
      per completed op are left for the cyclic collector, which
      ``Simulator.run`` pauses, so they stay alive until it returns;
    * any ``express_frac`` fall — more WRs step instead of taking the
      express lane;
    * a ``traced_peak_kb`` rise beyond :data:`TRACED_PEAK_TOLERANCE`
      plus :data:`TRACED_PEAK_FLOOR_KB` — the scenario's untimed run
      held more Python memory at its peak (only when both sides
      recorded it);
    * a rise beyond :data:`EVENTS_PER_OP_TOLERANCE` in any layer of
      ``events_by_layer`` or ``calls_by_layer`` — some layer does more
      work per op, even if another layer's fall hides it in the total
      (only when both sides recorded the row);
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
        if ("completions_digest" in b and "completions_digest" in c
                and c["completions_digest"] != b["completions_digest"]):
            failures.append(
                f"{name}: COMPLETIONS digest changed "
                f"({b['completions_digest'][:12]} -> "
                f"{c['completions_digest'][:12]}) — some WR completed "
                "differently (status, time, value or order), even if no "
                "table shows it")
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
        b_m, c_m = b.get("metrics", {}), c.get("metrics", {})
        for key, why in _PER_OP_GATES:
            b_v, c_v = b_m.get(key), c_m.get(key)
            if (b_v is not None and c_v is not None
                    and c_v > b_v * (1.0 + EVENTS_PER_OP_TOLERANCE)):
                failures.append(
                    f"{name}: {key.replace('_per_', '/')} rose {b_v} -> "
                    f"{c_v} — {why}")
        for key, why in _LAYER_GATES:
            b_v, c_v = b_m.get(key), c_m.get(key)
            if b_v is None or c_v is None:
                continue
            for layer, n in c_v.items():
                was = b_v.get(layer, 0.0)
                if n > was * (1.0 + EVENTS_PER_OP_TOLERANCE):
                    failures.append(
                        f"{name}: {key} {layer} rose {was} -> {n} — {why}")
        b_v, c_v = b_m.get("express_frac"), c_m.get("express_frac")
        if b_v is not None and c_v is not None and c_v < b_v:
            failures.append(
                f"{name}: express_frac fell {b_v} -> {c_v} — more WRs "
                "step instead of taking the express lane")
        b_v, c_v = b_m.get("traced_peak_kb"), c_m.get("traced_peak_kb")
        if (b_v is not None and c_v is not None and c_v > b_v
                * (1.0 + TRACED_PEAK_TOLERANCE) + TRACED_PEAK_FLOOR_KB):
            failures.append(
                f"{name}: traced_peak_kb rose {b_v} -> {c_v} — the "
                "scenario holds more Python memory at its peak (a per-op "
                "object that outlives its op?)")
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
    parallel-sweep speedup, excluded from digests.  The per-op counts
    and ``traced_peak_kb`` are gated against a rise, ``express_frac``
    against a fall; ``jobs4_speedup`` is gated against
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
            body = " ".join(f"{k}={v}" for k, v in row.items()
                            if not isinstance(v, dict))
            lines.append(f"  {name}: {body}{src}")
            for key, _why in _LAYER_GATES:
                if key in row:
                    body = " ".join(f"{layer}={n}"
                                    for layer, n in row[key].items())
                    lines.append(f"    {key}: {body}")
    if lines:
        print(f"tracked metrics (events_per_op, cycles_per_op, each layer "
              f"of events_by_layer and calls_by_layer, and "
              f"traced_peak_kb gated against a rise, express_frac against "
              f"a fall; jobs4_speedup gated at >={SPEEDUP_FLOOR}x on "
              f">={SPEEDUP_CORES} cores; the rest, in_place_per_op "
              "included, informational):")
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
    p_census = sub.add_parser(
        "census", help="print events per completed op by the layer that "
                       "scheduled them, and Python calls per op by layer "
                       "(informational, not gated)")
    p_census.add_argument("scenarios", nargs="+", choices=list(SCENARIOS),
                          metavar="scenario")
    args = parser.parse_args(argv)

    if args.cmd == "census":
        from repro.bench.perf import census
        return census.main(args.scenarios)

    if args.cmd == "update":
        data = run_scenarios(traced=True, layers=True)
        with open(args.baseline, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        _print_table(data)
        _print_tracked(data)
        print(f"baseline written to {args.baseline}")
        return 0

    names = list(QUICK_SCENARIOS) if args.quick else None
    data = run_scenarios(names, traced=True, layers=True)
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
