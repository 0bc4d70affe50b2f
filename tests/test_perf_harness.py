"""The perf harness (repro.bench.perf) and the engine's determinism
contract: well-formed baselines, a gate that actually trips, and
schedule-identity pins for the fast-path optimizations."""

import json
from collections import Counter

import pytest

from repro.bench.perf import harness
from repro.sim import Interrupt, Simulator
from tests.lane_wakes import lane_wakes


def _trace_all(monkeypatch, timelines):
    """Record (when, priority, seq) of every dispatch of every Simulator
    built while the patch is active (figure sweeps build many)."""
    orig_init = Simulator.__init__

    def patched(self):
        orig_init(self)
        rec = []
        timelines.append(rec)
        self.trace_dispatch = (
            lambda when, prio, seq: rec.append((when, prio, seq)))

    monkeypatch.setattr(Simulator, "__init__", patched)


# ------------------------------------------------------------- the harness
def test_run_scenarios_emits_well_formed_json(tmp_path):
    data = harness.run_scenarios(["engine_dispatch"])
    # Round-trips through JSON and carries the full schema.
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(data))
    loaded = json.loads(path.read_text())
    assert loaded["format"] == 1
    row = loaded["scenarios"]["engine_dispatch"]
    assert set(row) == {"wall_s", "events", "events_per_sec", "digest"}
    assert row["events"] > 1_000_000  # the microbench dispatches ~1.6M
    assert row["events_per_sec"] > 0
    assert len(row["digest"]) == 64  # sha256 hex


def test_engine_dispatch_digest_is_reproducible():
    a = harness.run_scenarios(["engine_dispatch"])["scenarios"]
    b = harness.run_scenarios(["engine_dispatch"])["scenarios"]
    assert (a["engine_dispatch"]["digest"]
            == b["engine_dispatch"]["digest"])
    assert (a["engine_dispatch"]["events"]
            == b["engine_dispatch"]["events"])


def test_gate_trips_on_injected_slowdown():
    current = harness.run_scenarios(["engine_dispatch"])
    # Pretend the committed baseline was 2x faster than what we just
    # measured: a 50% drop must fail a 20% gate...
    baseline = json.loads(json.dumps(current))
    row = baseline["scenarios"]["engine_dispatch"]
    row["events_per_sec"] *= 2
    failures = harness.check(baseline, current, tolerance=0.20)
    assert any("below baseline" in f for f in failures)
    # ...and pass a lenient one.
    assert harness.check(baseline, current, tolerance=0.60) == []


def test_events_per_sec_counts_in_place_dispatches(monkeypatch):
    """The throughput row divides every dispatch, heap and in place, by
    the wall time, so a scenario whose wakes run in place is timed by
    its work, not by its few heap entries."""
    import types

    from repro.sim import Simulator

    def chain():
        sim = Simulator()

        def wake(_):
            if sim.now < 99.0:
                sim.call_tail(sim.now + 1.0, wake)

        sim.call_tail(0.0, wake)  # pushed before run(): the heap entry
        sim.run()
        return {"now": sim.now}

    clock = iter([10.0, 12.0])
    monkeypatch.setitem(harness.SCENARIOS, "chain", chain)
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(
        perf_counter=lambda: next(clock)))
    row = harness.run_scenarios(["chain"])["scenarios"]["chain"]
    assert row["events"] == 1
    assert row["events_per_sec"] == 50  # 100 dispatches in 2 s


def test_gate_trips_on_schedule_digest_change():
    current = harness.run_scenarios(["engine_dispatch"])
    baseline = json.loads(json.dumps(current))
    baseline["scenarios"]["engine_dispatch"]["digest"] = "0" * 64
    failures = harness.check(baseline, current)
    assert any("digest" in f for f in failures)


def _row(**over):
    row = {"wall_s": 1.0, "events": 1000, "events_per_sec": 1000,
           "digest": "a" * 64, "table_digest": "b" * 64,
           "metrics": {"events_per_op": 10.0}}
    row.update(over)
    return row


def test_gate_table_digest_change_always_fails():
    baseline = {"format": 1, "scenarios": {"fig5": _row()}}
    current = {"format": 1,
               "scenarios": {"fig5": _row(table_digest="c" * 64)}}
    failures = harness.check(baseline, current)
    assert any("TABLE digest" in f for f in failures)
    assert any("never a legitimate" in f for f in failures)


def test_gate_completions_digest_change_always_fails():
    baseline = {"format": 1, "scenarios": {"fig5": _row(
        completions_digest="d" * 64)}}
    moved = {"format": 1, "scenarios": {"fig5": _row(
        completions_digest="e" * 64)}}
    failures = harness.check(baseline, moved)
    assert len(failures) == 1 and "COMPLETIONS digest" in failures[0]
    assert harness.check(baseline, baseline) == []
    # A row without the census (plain run_scenarios) is not gated on it.
    assert harness.check(baseline, {"format": 1,
                                    "scenarios": {"fig5": _row()}}) == []


def test_gate_schedule_digest_change_with_event_count_is_refreshable():
    """An event-elision change (count moved, tables identical) fails the
    stale baseline but points at perf-update, unlike a same-count
    schedule change, which is flagged as a correctness problem."""
    baseline = {"format": 1, "scenarios": {"fig5": _row()}}
    elided = {"format": 1, "scenarios": {"fig5": _row(
        digest="c" * 64, events=600, events_per_sec=1000)}}
    failures = harness.check(baseline, elided)
    assert any("perf-update" in f for f in failures)
    assert not any("TABLE" in f for f in failures)

    same_count = {"format": 1,
                  "scenarios": {"fig5": _row(digest="c" * 64)}}
    failures = harness.check(baseline, same_count)
    assert any("schedule-preserving" in f for f in failures)


def test_gate_trips_on_events_per_op_rise():
    baseline = {"format": 1, "scenarios": {"fig5": _row()}}
    worse = {"format": 1, "scenarios": {"fig5": _row(
        metrics={"events_per_op": 10.5})}}
    failures = harness.check(baseline, worse)
    assert any("events/op rose" in f for f in failures)
    # Within the rounding slack (or an improvement): no failure.
    assert harness.check(baseline, {"format": 1, "scenarios": {
        "fig5": _row(metrics={"events_per_op": 10.05})}}) == []
    assert harness.check(baseline, {"format": 1, "scenarios": {
        "fig5": _row(metrics={"events_per_op": 8.0})}}) == []


def test_gate_trips_on_cycles_per_op_rise():
    baseline = {"format": 1, "scenarios": {"fig5": _row(
        metrics={"events_per_op": 10.0, "cycles_per_op": 0.11})}}
    worse = {"format": 1, "scenarios": {"fig5": _row(
        metrics={"events_per_op": 10.0, "cycles_per_op": 12.0})}}
    failures = harness.check(baseline, worse)
    assert any("cycles/op rose 0.11 -> 12.0" in f for f in failures)
    assert harness.check(baseline, {"format": 1, "scenarios": {
        "fig5": _row(metrics={"events_per_op": 10.0,
                              "cycles_per_op": 0.0})}}) == []
    # A zero baseline is gated too: any cycle per op is a rise.
    zero = {"format": 1, "scenarios": {"fig5": _row(
        metrics={"events_per_op": 10.0, "cycles_per_op": 0.0})}}
    assert any("cycles/op rose" in f for f in harness.check(zero, worse))


def test_gate_trips_on_express_frac_fall():
    baseline = {"format": 1, "scenarios": {"fig10": _row(
        metrics={"events_per_op": 10.0, "express_frac": 0.5606})}}
    worse = {"format": 1, "scenarios": {"fig10": _row(
        metrics={"events_per_op": 10.0, "express_frac": 0.5605})}}
    failures = harness.check(baseline, worse)
    assert any("express_frac fell 0.5606 -> 0.5605" in f for f in failures)
    assert harness.check(baseline, {"format": 1, "scenarios": {
        "fig10": _row(metrics={"events_per_op": 10.0,
                               "express_frac": 1.0})}}) == []


def test_gate_trips_on_traced_peak_rise():
    base_kb = 1000
    baseline = {"format": 1, "scenarios": {"fig5": _row(
        metrics={"events_per_op": 10.0, "traced_peak_kb": base_kb})}}
    slack = (base_kb * (1 + harness.TRACED_PEAK_TOLERANCE)
             + harness.TRACED_PEAK_FLOOR_KB)

    def gate(kb):
        return harness.check(baseline, {"format": 1, "scenarios": {
            "fig5": _row(metrics={"events_per_op": 10.0,
                                  "traced_peak_kb": kb})}})

    assert any("traced_peak_kb rose" in f for f in gate(int(slack) + 1))
    assert gate(int(slack)) == []
    assert gate(base_kb // 2) == []
    # An untraced run (plain run_scenarios) is not gated on it.
    assert harness.check(baseline, {"format": 1, "scenarios": {
        "fig5": _row(metrics={"events_per_op": 10.0})}}) == []


@pytest.mark.parametrize("key", ["events_by_layer", "calls_by_layer"])
def test_gate_trips_on_a_layer_rise(key):
    """Each layer of the per-layer rows is gated on its own: a layer's
    rise fails even when another layer's fall keeps the total flat, and
    a layer missing from the baseline counts as 0."""
    base = {"sim": 50.0, "load": 20.0}

    def gate(layers):
        return harness.check(
            {"format": 1, "scenarios": {"ext10": _row(
                metrics={"events_per_op": 10.0, key: base})}},
            {"format": 1, "scenarios": {"ext10": _row(
                metrics={"events_per_op": 10.0, key: layers})}})

    failures = gate({"sim": 40.0, "load": 30.0})
    assert len(failures) == 1 and f"{key} load rose 20.0 -> 30.0" in \
        failures[0]
    assert any(f"{key} apps rose 0.0 -> 0.1" in f
               for f in gate({**base, "apps": 0.1}))
    # Within the 1% slack, a fall, or a layer dropping out: no failure.
    assert gate({"sim": 50.5, "load": 20.2}) == []
    assert gate({"sim": 10.0}) == []
    # A row without the census (plain run_scenarios) is not gated on it.
    assert harness.check(
        {"format": 1, "scenarios": {"ext10": _row(
            metrics={"events_per_op": 10.0, key: base})}},
        {"format": 1, "scenarios": {"ext10": _row(
            metrics={"events_per_op": 10.0})}}) == []


def test_layer_rows_sum_to_the_scenario_counts():
    """``layers=True`` adds the census's per-layer rows, whose events
    sum to the row's ``events_per_op`` (to rounding), and the row's
    ``completions_digest``, and changes no other field of the row."""
    from repro.bench.perf import census

    from repro.check import differential

    plain = harness.run_scenarios(["fig5"])["scenarios"]["fig5"]
    row = harness.run_scenarios(["fig5"], layers=True)["scenarios"]["fig5"]
    events = row["metrics"].pop("events_by_layer")
    calls = row["metrics"].pop("calls_by_layer")
    assert row["metrics"] == plain["metrics"]
    # ... and the census run's completion digests, one per simulator
    lane = differential.run(harness.SCENARIOS["fig5"], express=True)
    assert len(lane.digests) == 12
    assert row.pop("completions_digest") == harness._digest(lane.digests)
    assert "completions_digest" not in plain
    assert set(events) | set(calls) <= set(census.LAYERS)
    assert abs(sum(events.values())
               - plain["metrics"]["events_per_op"]) < 0.05
    assert calls["verbs.express"] > 0 and calls["sim"] > 0


@pytest.mark.parametrize("express", [True, False])
def test_census_counts_the_lane_the_timed_run_takes(express):
    """The event-counting run takes the lane it is given (the express
    lane, which the timed run takes, unless ``express=False``), so its
    layer rows and completion digests describe that run.  The lane is
    read from its coverage: every WR steps on the stepped reference, and
    none steps on the lane (breakdown dispatches no ``verbs.express``
    event on the lane: its lane wakes all run in place)."""
    from repro.bench.perf import census
    from repro.check import differential
    from repro.verbs.qp import tally

    before = tally.stepped
    _, ops, digests = census.events_by_layer("breakdown", express)
    assert ops > 0
    assert tally.stepped - before == (0 if express else ops)
    lane = differential.run(harness.SCENARIOS["breakdown"], express)
    assert digests == lane.digests


def test_traced_run_records_the_peak_and_keeps_the_rest():
    """``traced=True`` adds the untimed tracemalloc run's peak and
    changes no other field of the row."""
    plain = harness.run_scenarios(["fig5"])["scenarios"]["fig5"]
    traced = harness.run_scenarios(["fig5"], traced=True)["scenarios"]["fig5"]
    peak = traced["metrics"].pop("traced_peak_kb")
    assert 100 < peak < 100_000
    assert traced["metrics"] == plain["metrics"]
    assert plain["metrics"]["express_frac"] == 1.0
    for key in ("events", "digest", "table_digest"):
        assert traced[key] == plain[key]


def test_figure_scenario_carries_table_digest_and_events_per_op():
    data = harness.run_scenarios(["fig5"])
    row = data["scenarios"]["fig5"]
    assert len(row["table_digest"]) == 64
    assert row["table_digest"] != row["digest"]
    assert row["metrics"]["events_per_op"] > 1.0


def test_cycles_per_op_is_small_and_repeats():
    """fig5 is the lane's closed-loop sweep: its finished ops must die
    by refcount, leaving only each rig's own cycles (0.11 cycles/op;
    15.71 when ``Process`` and ``ExpressOp`` were self-cycles).  The
    count repeats exactly from run to run."""
    first = harness.run_scenarios(["fig5"])["scenarios"]["fig5"]
    assert 0 < first["metrics"]["cycles_per_op"] < 1.0
    again = harness.run_scenarios(["fig5"])["scenarios"]["fig5"]
    assert again["metrics"] == first["metrics"]


@pytest.mark.parametrize("name", ["fig5", "ext7", "ext9", "ext10"])
def test_census_counts_every_dispatch_and_keeps_the_schedule(name):
    """The event census charges each dispatch to the layer that scheduled
    it: its layers sum to the scenario's ``events``, and its run
    reproduces the plain run's schedule digest with the express lane on.
    Entries the engine ran in place are counted by layer too, and sum to
    the engine's own in-place count; ext9 (queued fabric hops) and
    ext10 have them on the lane, ext10 in tenancy and load too."""
    import heapq

    from repro.bench.perf import census
    from repro.sim import Simulator, engine

    park = Simulator._park
    plain = harness.run_scenarios([name])["scenarios"][name]
    row = census.census([name])[name]
    assert sum(row["by_layer"].values()) == row["events"] == plain["events"]
    assert sum(row["in_place"].values()) == row["in_place_events"]
    assert (round(row["in_place_events"] / row["ops"], 2)
            == plain["metrics"]["in_place_per_op"])
    assert row["digest"] == plain["digest"]
    assert row["calls_ops"] == row["ops"]
    assert row["calls"]["sim"] > 0 and row["calls"]["verbs.express"] > 0
    in_place = {layer for layer, n in row["in_place"].items() if n}
    assert row["by_layer"]["verbs.express"] > 0
    assert "verbs.express" in in_place
    assert row["stepped"] == 0
    assert plain["metrics"]["express_frac"] == 1.0
    assert row["traced_peak_kb"] > 0
    if name == "ext10":
        assert {"tenancy", "load"} <= in_place
    assert (engine.heappush, engine.heappop, engine.heappushpop) == (
        heapq.heappush, heapq.heappop, heapq.heappushpop)
    assert Simulator._park is park


def test_census_charges_a_keyed_wake_to_the_layer_that_booked_it(
        monkeypatch):
    """The lane keys a data-less WRITE's CQE wake after its later service
    end (``Simulator.call_keyed``); the census charges that wake, like
    every other lane wake, to ``verbs.express``."""
    from repro import build
    from repro.bench.perf import census
    from repro.verbs import Worker
    from repro.verbs.types import Opcode, Sge, WorkRequest

    def seq_kind(op, handler, arg):
        if arg is None:  # a scheduled wake, not a timed hold's grant
            return "keyed" if op.qp.sim.seq_now % 1 else "plain"
        return None

    with lane_wakes(seq_kind) as kinds, census._counting() as (
            counts, in_place):
        sim, cluster, ctx = build(machines=2)
        lmr, rmr = ctx.register(0, 4096), ctx.register(1, 4096)
        w = Worker(ctx, 0)
        qp = ctx.create_qp(0, 1)

        def client():
            for size in (64, 256):
                yield from w.execute(qp, WorkRequest(
                    Opcode.WRITE, sgl=[Sge(lmr, 0, size)], remote_mr=rmr,
                    remote_offset=0, move_data=False))
        sim.run(until=sim.process(client()))
    woken = Counter(kinds)  # the lane's wakes that a dispatch ran
    assert woken["keyed"] == 2
    # The lane schedules its wakes and each WRITE's ``done``.
    charged = counts["verbs.express"] + in_place["verbs.express"]
    assert charged == woken["keyed"] + woken["plain"] + 2


def test_census_calls_by_layer_repeat_exactly():
    """The census's cProfile pass counts the same Python calls, layer by
    layer, every time the scenario runs after its warm-up."""
    from repro.bench.perf import census

    row = census.census(["fig5"])["fig5"]
    again, ops = census.calls_by_layer("fig5")
    assert {layer: again[layer] for layer in census.LAYERS} == row["calls"]
    assert ops == row["calls_ops"] == row["ops"]
    assert set(again) <= set(census.LAYERS)


def test_census_calls_count_synthesized_functions(monkeypatch):
    """Synthesized functions that share a (file, line, name) label —
    every dataclass ``__init__``, every named tuple's ``__new__`` — are
    each counted, not collapsed into one of them."""
    import dataclasses
    from collections import namedtuple

    from repro.bench.perf import census

    A = dataclasses.make_dataclass("A", ["x"])
    B = dataclasses.make_dataclass("B", ["y"])
    P = namedtuple("P", "x")
    Q = namedtuple("Q", "y")

    def synth() -> dict:
        for i in range(100):
            A(i), B(i), P(i), Q(i)
        return {}

    monkeypatch.setitem(harness.SCENARIOS, "synth", synth)
    calls, _ops = census.calls_by_layer("synth")
    # 400 synthesized calls plus the 200 ``tuple.__new__`` the named
    # tuples make, all outside repro.
    assert calls["other"] >= 600


def test_gate_passes_on_identical_runs():
    current = harness.run_scenarios(["engine_dispatch"])
    baseline = json.loads(json.dumps(current))
    assert harness.check(baseline, current) == []


def test_gate_flags_scenario_missing_from_baseline():
    current = harness.run_scenarios(["engine_dispatch"])
    failures = harness.check({"format": 1, "scenarios": {}}, current)
    assert any("not in baseline" in f for f in failures)


def test_perf_cli_update_then_check(tmp_path, monkeypatch, capsys):
    """``update`` writes what ``load_baseline`` reads back; ``check``
    passes against it, fails on a moved digest and on a missing file."""
    row = {"wall_s": 1.0, "events": 100, "events_per_sec": 100,
           "digest": "a" * 64,
           "metrics": {"events_per_op": 2.0,
                       "events_by_layer": {"sim": 2.0}}}
    monkeypatch.setattr(
        harness, "run_scenarios",
        lambda names=None, **kw: {"format": 1,
                                  "scenarios": {"fig1": dict(row)}})
    path = tmp_path / "base.json"
    assert harness.main(["update", "--baseline", str(path)]) == 0
    assert harness.load_baseline(str(path)) == harness.run_scenarios()
    assert f"baseline written to {path}" in capsys.readouterr().out

    assert harness.main(["check", "--baseline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "perf gate passed" in out
    assert "events_by_layer: sim=2.0" in out

    moved = json.loads(path.read_text())
    moved["scenarios"]["fig1"]["digest"] = "b" * 64
    path.write_text(json.dumps(moved))
    assert harness.main(["check", "--baseline", str(path)]) == 1
    assert "PERF GATE FAILED" in capsys.readouterr().out

    missing = tmp_path / "missing.json"
    assert harness.main(["check", "--baseline", str(missing)]) == 1
    assert "no baseline" in capsys.readouterr().out

    path.write_text(json.dumps({"format": 2}))
    with pytest.raises(ValueError):
        harness.load_baseline(str(path))


# ---------------------------------------------------- schedule identity
@pytest.mark.parametrize("target", ["repro.bench.fig01_throttling",
                                    "repro.bench.ext7_fault_recovery"])
def test_seeded_figure_replays_byte_identical_timelines(
        monkeypatch, target):
    """Two runs of a seeded sweep dispatch the exact same (time, priority,
    seq) sequence — the strongest statement of engine determinism, and
    what every fast-path optimization must preserve."""
    from repro.bench import TARGETS
    from repro.bench.parallel import run_campaign
    name, = (n for n, path in TARGETS.items() if path == target)

    runs = []
    for _ in range(2):
        timelines = []
        with pytest.MonkeyPatch.context() as mp:
            _trace_all(mp, timelines)
            run_campaign(name)
        runs.append(timelines)
    assert runs[0] == runs[1]
    assert sum(len(t) for t in runs[0]) > 10_000  # actually traced


def test_bare_delay_and_timeout_spellings_are_schedule_identical():
    """`yield d` (the _Sleep lane) and `yield sim.timeout(d)` must produce
    bit-identical event timelines: same times, same priorities, same
    sequence numbers."""
    def model(sim, use_bare):
        def worker(period):
            acc = 0.0
            for _ in range(50):
                if use_bare:
                    yield period
                else:
                    yield sim.timeout(period)
                acc += period
            return acc

        def waiter(p):
            value = yield p
            yield 1.5 if use_bare else sim.timeout(1.5)
            return value

        procs = [sim.process(worker(3.25)), sim.process(worker(7.5))]
        tail = sim.process(waiter(procs[0]))
        sim.run(until=tail)
        return sim

    timelines = []
    for use_bare in (False, True):
        sim = Simulator()
        rec = []
        sim.trace_dispatch = lambda w, p, s, rec=rec: rec.append((w, p, s))
        s = model(sim, use_bare)
        timelines.append((rec, s.now, s.events_processed))
    assert timelines[0] == timelines[1]


def test_interrupting_a_bare_delay_sleeper():
    """Interrupt lands mid-sleep; the stale sleep entry is skipped like a
    cancelled timeout (and accounted as cancelled)."""
    sim = Simulator()
    seen = []

    def sleeper():
        try:
            yield 1000.0
            seen.append("woke")
        except Interrupt as i:
            seen.append(("interrupted", sim.now, i.cause))
            yield 5.0  # sleeping again after the interrupt must work
            seen.append(("slept again", sim.now))

    def interrupter(victim):
        yield 40.0
        victim.interrupt("move it")

    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    sim.run()
    assert seen == [("interrupted", 40.0, "move it"),
                    ("slept again", 45.0)]
    assert sim.events_cancelled == 1  # the abandoned sleep
    assert victim.processed
