"""Unit tests for the DES engine: events, processes, combinators, errors."""

import contextlib
import gc

import pytest

from repro.sim import (AllOf, Interrupt, Resource, SimulationError,
                       Simulator, Timeout)
from tests.engine_ref import always_push
from tests.gc_census import cyclic_garbage


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(100)
        log.append(sim.now)
        yield sim.timeout(50)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [100, 150]


def test_timeout_value_passed_to_process():
    sim = Simulator()
    seen = []

    def proc():
        v = yield sim.timeout(5, value="payload")
        seen.append(v)

    sim.process(proc())
    sim.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_process_return_value_via_run():
    sim = Simulator()

    def proc():
        yield sim.timeout(10)
        return 42

    p = sim.process(proc())
    assert sim.run(until=p) == 42


def test_process_waits_on_subprocess():
    sim = Simulator()

    def child():
        yield sim.timeout(30)
        return "done"

    def parent():
        result = yield sim.process(child())
        return (result, sim.now)

    p = sim.process(parent())
    assert sim.run(until=p) == ("done", 30)


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def proc(name, delay):
        yield sim.timeout(delay)
        order.append(name)
        yield sim.timeout(delay)
        order.append(name)

    sim.process(proc("a", 10))
    sim.process(proc("b", 15))
    sim.run()
    assert order == ["a", "b", "a", "b"]


def test_same_time_events_fire_in_creation_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(10)
        order.append(tag)

    for i in range(5):
        sim.process(proc(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def waiter():
        v = yield gate
        seen.append((v, sim.now))

    def opener():
        yield sim.timeout(7)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert seen == [("open", 7)]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    gate.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_from_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("exploded")

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_awaited_process_exception_reraises_from_run_until():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("exploded")

    p = sim.process(bad())
    with pytest.raises(ValueError, match="exploded"):
        sim.run(until=p)


def test_yield_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 123

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(10)

    sim.process(ticker())
    sim.run(until=95)
    assert sim.now == 95


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(ValueError):
        sim.run(until=5)


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    never = sim.event()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=never)


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(10, value="a")
        t2 = sim.timeout(20, value="b")
        result = yield AllOf(sim, [t1, t2])
        return (sim.now, sorted(result.values()))

    p = sim.process(proc())
    assert sim.run(until=p) == (20, ["a", "b"])


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        yield AllOf(sim, [])
        return sim.now

    p = sim.process(proc())
    assert sim.run(until=p) == 0


def test_interrupt_raises_inside_process():
    sim = Simulator()
    caught = []

    def sleeper():
        try:
            yield sim.timeout(1000)
        except Interrupt as intr:
            caught.append((intr.cause, sim.now))

    def interrupter(target):
        yield sim.timeout(42)
        target.interrupt("wakeup")

    p = sim.process(sleeper())
    sim.process(interrupter(p))
    sim.run()
    assert caught == [("wakeup", 42)]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    p = sim.process(quick())
    sim.run()
    p.interrupt()  # must not raise
    sim.run()


def test_stale_wakeup_after_interrupt_ignored():
    """After an interrupt, the abandoned timeout firing must not resume us."""
    sim = Simulator()
    trace = []

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt:
            trace.append(("interrupted", sim.now))
        yield sim.timeout(500)
        trace.append(("resumed", sim.now))

    def interrupter(target):
        yield sim.timeout(10)
        target.interrupt()

    p = sim.process(sleeper())
    sim.process(interrupter(p))
    sim.run()
    assert trace == [("interrupted", 10), ("resumed", 510)]


@pytest.mark.parametrize("probe", ["peek", "step"])
def test_interrupted_bare_sleeper_is_a_tombstone_to_peek_and_step(probe):
    """An interrupted bare-delay sleeper leaves its marker on the heap,
    detached.  Stepped by hand (no ``run()``), with that marker at t=100
    on top and the process's next sleep at t=160 behind it, ``peek()``
    drops it and reports 160, and ``step()`` skips it and resumes the
    sleeper at 160 without stopping at 100."""
    sim = Simulator()
    trace = []

    def sleeper():
        try:
            yield 100.0
        except Interrupt:
            trace.append(("interrupted", sim.now))
        yield 150.0
        trace.append(("resumed", sim.now))

    def interrupter(target):
        yield 10.0
        target.interrupt()

    p = sim.process(sleeper())
    sim.process(interrupter(p))
    while sim._heap[0][0] < 100.0:
        sim.step()
    assert trace == [("interrupted", 10.0)] and sim.events_cancelled == 1
    assert sorted(when for when, _, _, _ in sim._heap) == [100.0, 160.0]
    if probe == "peek":
        assert sim.peek() == 160.0
        assert len(sim._heap) == 1
    sim.step()
    assert trace == [("interrupted", 10.0), ("resumed", 160.0)]
    assert sim.now == 160.0


def test_process_requires_generator():
    sim = Simulator()

    def not_a_generator():
        return 1

    with pytest.raises(TypeError):
        sim.process(not_a_generator)  # type: ignore[arg-type]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(25)
    assert sim.peek() == 25


# ------------------------------------------- finished processes are acyclic
def _returns(sim):
    yield 1.0
    yield sim.timeout(1.0)
    return 7


def _raises(sim, bare):
    yield 1.0 if bare else sim.timeout(1.0)
    raise ValueError("boom")


def _sleeps():
    yield 100.0


def _interrupts_after(delay, target):
    yield delay
    target.interrupt()


def _catches(spawn):
    # The child is yielded straight from ``spawn()``: a local naming it
    # would make this frame, held by the caught exception's traceback,
    # a cycle of the test's own making.
    try:
        yield spawn()
    except (ValueError, Interrupt):
        pass


def _interrupted(sim, generator):
    child = sim.process(generator)
    sim.process(_interrupts_after(5.0, child))
    return child


def _interrupted_unstarted(sim):
    p = sim.process(_returns(sim))
    p.interrupt()
    return p


def _sleeps_through_interrupt():
    try:
        yield 100.0
    except Interrupt:
        pass
    yield 1.0


def _returns_on_interrupt():
    try:
        yield 100.0
    except Interrupt:
        return


#: Every way a process ends.  Each builder returns the process whose end
#: ``run(until=...)`` waits for.
_TERMINATIONS = {
    "return": lambda sim: sim.process(_returns(sim)),
    "raise_after_bare_delay_caught_by_waiter": lambda sim: sim.process(
        _catches(lambda: sim.process(_raises(sim, bare=True)))),
    "raise_after_event_caught_by_waiter": lambda sim: sim.process(
        _catches(lambda: sim.process(_raises(sim, bare=False)))),
    "interrupt_thrown_out_to_waiter": lambda sim: sim.process(
        _catches(lambda: _interrupted(sim, _sleeps()))),
    "interrupt_before_start": _interrupted_unstarted,
    "interrupt_during_bare_delay_then_finish": lambda sim: _interrupted(
        sim, _sleeps_through_interrupt()),
    "interrupt_caught_then_return": lambda sim: _interrupted(
        sim, _returns_on_interrupt()),
}


@pytest.mark.parametrize("until", [False, True], ids=["drain", "until"])
@pytest.mark.parametrize("path", sorted(_TERMINATIONS))
def test_finished_process_is_freed_by_refcount(path, until):
    """``run()`` pauses the cyclic collector, so a process must drop its
    self-references (``_bound_resume``, its ``_Sleep`` marker, the engine
    frame in a failure's traceback) when it ends; otherwise every
    finished process lives until ``run()`` returns.  Both copies of the
    fused dispatch loop are exercised (drain and run-until modes)."""
    def scenario():
        sim = Simulator()
        last = _TERMINATIONS[path](sim)
        sim.run(until=last if until else None)
        assert not last.is_alive
        return sim

    garbage = cyclic_garbage(scenario)
    assert garbage["Process"] == 0 and garbage["_Sleep"] == 0, garbage


def test_census_ignores_garbage_left_by_earlier_code():
    """The census counts what its scenario dropped, not older garbage.
    A simulator dropped with a process suspended in ``try/finally``
    around a ``Resource`` another process waits on is freed in two
    collections: closing the generator runs ``release()``, whose grant
    pushes a new heap entry that keeps the old rig alive through the
    first.  Unflushed, it landed in the next census (how
    ``test_finished_process_is_freed_by_refcount`` flaked after the
    property tests)."""
    def dropped_rig():
        sim = Simulator()
        res = Resource(sim)

        def holder():
            yield res.acquire()
            try:
                yield 100.0
            finally:
                res.release()

        def waiter():
            yield res.acquire()

        sim.process(holder())
        sim.process(waiter())
        sim.run(until=10.0)

    def scenario():
        sim = Simulator()
        sim.run(until=_interrupted_unstarted(sim))
        return sim

    enabled = gc.isenabled()
    gc.disable()
    try:
        dropped_rig()
    finally:
        if enabled:
            gc.enable()
    assert not cyclic_garbage(scenario)


# ----------------------------------------------------- in-place dispatch
class _Recorder:
    """A simulator with a traced timeline, sanitizer-style dispatch hook
    and a log.  ``rec.tail`` is ``call_tail``; the in-place tests run each
    scenario once as is and once under ``always_push()``, the reference
    in which every entry takes a heap round trip."""

    def __init__(self):
        self.sim = sim = Simulator()
        self.timeline = []
        self.checked = []
        self.log = []
        sim.trace_dispatch = lambda w, p, s: self.timeline.append((w, p, s))
        sim.check = self
        self.tail = sim.call_tail

    def on_dispatch(self, when):  # the sanitizer hook's signature
        self.checked.append(when)

    def mark(self, name):
        """A wake callback appending ``(name, now)`` to the log."""
        return lambda _ev: self.log.append((name, self.sim.now))


def _both(scenario, **run):
    """Run ``scenario(rec)`` in place and under ``always_push()``; both
    must record the same timeline, hook calls, log, clock and tombstone
    count, and dispatch as many entries in all.  Returns ``(in-place
    runs, dispatched events)`` of the in-place run."""
    out = []
    for reference in (False, True):
        with always_push() if reference else contextlib.nullcontext():
            rec = _Recorder()
            scenario(rec)
            rec.sim.run(**run)
        out.append(rec)
    got, ref = out
    assert got.timeline == ref.timeline
    assert got.checked == ref.checked == [w for w, _, _ in ref.timeline]
    assert (got.log, got.sim.now) == (ref.log, ref.sim.now)
    assert got.sim.events_cancelled == ref.sim.events_cancelled
    assert ref.sim.events_in_place == 0
    assert (got.sim.events_in_place + got.sim.events_processed
            == ref.sim.events_processed)
    return got.sim.events_in_place, got.sim.events_processed


def test_call_tail_runs_in_place_only_when_its_key_beats_the_heap():
    def alone(rec):  # nothing else pending: the tail is next
        rec.sim.call_at(1.0, lambda _e: rec.tail(5.0, rec.mark("t")))

    def later_entry(rec):  # an entry after the tail does not block it
        def first(_e):
            rec.tail(5.0, rec.mark("t"))
            rec.sim.call_at(9.0, rec.mark("later"))
        rec.sim.call_at(1.0, first)

    def earlier_at_call(rec):  # an earlier heap entry pops first
        rec.sim.call_at(3.0, rec.mark("early"))
        rec.sim.call_at(1.0, lambda _e: rec.tail(5.0, rec.mark("t")))

    def timeout_alone(rec):  # any trigger: a timeout a process waits on
        sim = rec.sim

        def proc():
            yield sim.timeout(4.0)
            rec.log.append(("woke", sim.now))
        sim.call_at(1.0, lambda _e: sim.process(proc()))

    assert _both(alone) == (1, 1)
    assert _both(later_entry) == (1, 2)
    assert _both(earlier_at_call) == (0, 3)
    # call_at, then boot, timeout and the process's end all run in place
    assert _both(timeout_alone) == (3, 1)


def test_call_tail_keeps_same_instant_and_urgent_order():
    """A same-instant NORMAL entry scheduled after the tail takes a larger
    seq and follows it; an URGENT entry at the tail's instant precedes
    it."""
    def same_instant(rec):
        def first(_e):
            rec.tail(rec.sim.now, rec.mark("t"))
            rec.sim.call_at(rec.sim.now, rec.mark("after"))
        rec.sim.call_at(1.0, first)

    def urgent(rec):
        sim = rec.sim

        def boot():
            rec.log.append(("urgent", sim.now))
            yield 0.0

        def first(_e):
            rec.tail(sim.now, rec.mark("t"))
            sim.process(boot())  # boots at (now, URGENT)
        sim.call_at(1.0, first)

    assert _both(same_instant) == (1, 2)
    # the boot and the process's end run in place; t and the sleep pop
    assert _both(urgent) == (2, 3)
    rec = _Recorder()
    urgent(rec)
    rec.sim.run()
    assert [name for name, _ in rec.log] == ["urgent", "t"]


def test_the_slot_keeps_the_smallest_entry_and_pushes_the_other():
    """Of two entries one dispatch schedules, the smaller keeps the slot
    and the other is pushed under the seq it was given."""
    def smaller_second(rec):
        def first(_e):
            rec.tail(8.0, rec.mark("a"))  # displaced, seq kept
            rec.tail(5.0, rec.mark("b"))  # earlier: runs in place
        rec.sim.call_at(1.0, first)

    def same_instant(rec):
        def first(_e):
            rec.tail(5.0, rec.mark("a"))  # keeps the slot
            rec.tail(5.0, rec.mark("b"))  # queued behind a's seq
        rec.sim.call_at(1.0, first)

    def mixed(rec):  # a timeout, an event and a wake compete
        sim = rec.sim

        def first(_e):
            sim.timeout(6.0).callbacks.append(rec.mark("timeout"))
            ev = sim.event()
            ev.callbacks.append(rec.mark("event"))
            ev.succeed(delay=3.0)
            rec.tail(4.0, rec.mark("wake"))
        sim.call_at(1.0, first)

    def sleeper(rec):  # the loop's inlined sleeper re-push competes too
        sim = rec.sim

        def proc():
            yield 1.0
            rec.tail(sim.now + 5.0, rec.mark("wake"))  # parked first
            yield 2.0  # earlier: displaces the wake to the heap
            rec.log.append(("slept", sim.now))
        sim.process(proc())

    assert _both(smaller_second) == (1, 2)
    assert _both(same_instant) == (1, 2)
    assert _both(mixed) == (1, 3)
    assert _both(sleeper) == (3, 2)
    rec = _Recorder()
    smaller_second(rec)
    rec.sim.run()
    # b ran first but carries the later seq: a's was allocated before it.
    (_, _, s_first), (_, _, s_b), (_, _, s_a) = rec.timeline
    assert rec.log == [("b", 5.0), ("a", 8.0)] and s_a < s_b


def test_run_until_never_runs_a_tail_past_the_horizon():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda _e: sim.call_tail(
        100.0, lambda _e: seen.append(sim.now)))
    sim.run(until=50.0)
    assert seen == [] and sim.now == 50.0
    assert sim.peek() == 100.0  # the tail went to the heap
    sim.run()
    assert seen == [100.0] and sim.events_processed == 2
    assert _both(lambda rec: rec.sim.call_at(1.0, lambda _e: rec.tail(
        100.0, rec.mark("t"))), until=50.0) == (0, 1)


def test_stop_event_processed_in_place_ends_run():
    """An in-place dispatch that processes the awaited event ends
    ``run()`` there; the entry it displaced lands in the heap."""
    sim = Simulator()
    stop = sim.event()
    after = []

    def tail(_e):
        stop.succeed("v")  # as the lane completes an op
        sim.call_tail(sim.now + 1.0, lambda _e: after.append(sim.now))

    sim.call_at(1.0, lambda _e: sim.call_tail(2.0, tail))
    assert sim.run(until=stop) == "v"
    assert sim.now == 2.0 and after == []
    assert sim.events_in_place == 2  # the tail and the stop event
    assert sim.peek() == 3.0
    sim.run()
    assert after == [3.0]


def test_exception_in_an_in_place_run_propagates_like_a_dispatch():
    def scenario(sim):
        seen = []

        def boom(_e):
            sim.call_tail(sim.now + 5.0, lambda _e: seen.append(sim.now))
            raise RuntimeError("boom")

        sim.call_at(1.0, lambda _e: sim.call_at(2.0, boom))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert sim.now == 2.0
        assert sim.peek() == 7.0  # the leftover tail is in the heap
        sim.run()
        assert seen == [7.0]
        return sim.events_in_place, sim.events_processed

    assert scenario(Simulator()) == (1, 2)
    with always_push():
        assert scenario(Simulator()) == (0, 3)


def test_step_never_runs_a_tail_in_place():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda _e: sim.call_tail(
        2.0, lambda _e: seen.append(sim.now)))
    sim.call_tail(0.5, lambda _e: seen.append(sim.now))  # outside run()
    assert sim.peek() == 0.5
    sim.step()
    sim.step()
    assert seen == [0.5] and sim.peek() == 2.0
    sim.step()
    assert seen == [0.5, 2.0]
    assert (sim.events_processed, sim.events_in_place) == (3, 0)


def test_peek_mid_dispatch_pushes_the_parked_entry():
    """``peek()`` sees an entry the running dispatch parked: it pushes
    it, so it then takes the heap round trip."""
    seen = []

    def scenario(rec):
        sim = rec.sim

        def first(_e):
            rec.tail(sim.now + 5.0, rec.mark("t"))
            seen.append(sim.peek())
        sim.call_at(1.0, first)

    assert _both(scenario) == (0, 2)
    assert seen == [6.0, 6.0]


def test_cancel_while_parked_leaves_a_tombstone():
    """A timer cancelled by the dispatch that scheduled it is skipped
    from the slot as from the heap: not dispatched, not run in place."""
    def scenario(rec):
        sim = rec.sim

        def first(_e):
            t = sim.timeout(3.0)
            t.callbacks.append(rec.mark("never"))
            t.cancel()
        sim.call_at(1.0, first)
        sim.call_at(9.0, rec.mark("later"))

    assert _both(scenario) == (0, 2)
    sim = Simulator()
    sim.call_at(1.0, lambda _e: sim.timeout(3.0).cancel())
    sim.run()
    assert (sim.events_processed, sim.events_in_place,
            sim.events_cancelled) == (1, 0, 1)


def test_interrupt_while_parked_tombstones_the_timer():
    """A process whose fresh timer still sits in the slot is
    interrupted by a later callback of the same dispatch: the solitary
    timer is tombstoned (``_refs(waited) <= 3`` holds for the slot as
    for the heap) and the interrupt runs in place."""
    def scenario(rec):
        sim = rec.sim
        gate = sim.event()

        def proc():
            yield gate
            try:
                yield sim.timeout(10.0)
            except Interrupt as why:
                rec.log.append(("interrupted", sim.now, why.cause))
            yield 1.0
            rec.log.append(("done", sim.now))

        p = sim.process(proc())
        sim.call_at(1.0, lambda _e: (
            gate.succeed(),
            gate.callbacks.append(lambda _g: p.interrupt("stop"))))

    in_place, dispatched = _both(scenario)
    assert in_place > 0
    rec = _Recorder()
    scenario(rec)
    rec.sim.run()
    assert rec.log == [("interrupted", 1.0, "stop"), ("done", 2.0)]
    assert rec.sim.events_cancelled == 1


def test_process_booted_inside_a_dispatch_runs_in_place():
    def scenario(rec):
        sim = rec.sim

        def child(name):
            rec.log.append((name, sim.now))
            yield 0.0
            rec.log.append((name + "'", sim.now))

        def first(_e):
            sim.process(child("a"))
            sim.process(child("b"))  # boots after a: it is pushed
        sim.call_at(1.0, first)

    in_place, dispatched = _both(scenario)
    assert in_place >= 1
    rec = _Recorder()
    scenario(rec)
    rec.sim.run()
    assert rec.log == [("a", 1.0), ("b", 1.0), ("a'", 1.0), ("b'", 1.0)]


# ------------------------------------------------------ invalid delays
@pytest.mark.parametrize("delay", [float("nan"), -1.0])
def test_bad_bare_delay_fails_its_process_by_name(delay):
    sim = Simulator()

    def sleeper():
        yield 1.0
        yield delay

    sim.process(sleeper(), name="napper")
    with pytest.raises(SimulationError, match="napper") as info:
        sim.run()
    assert "non-negative" in str(info.value.__cause__)
    assert sim.now == 1.0


def test_timeout_refuses_nan_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    with pytest.raises(ValueError):
        Timeout(sim, float("nan"))
    assert sim.peek() == float("inf")


def test_call_at_and_call_tail_refuse_nan_but_clamp_float_dust():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_at(float("nan"), lambda _e: None)
    with pytest.raises(ValueError):
        sim.call_tail(float("nan"), lambda _e: None)
    seen = []

    def first(_e):  # a finite past instant is float dust: now
        sim.call_at(sim.now - 1e-9, lambda _e: seen.append(sim.now))
        sim.call_tail(sim.now - 1e-9, lambda _e: seen.append(sim.now))
    sim.call_at(5.0, first)
    sim.run()
    assert seen == [5.0, 5.0]


def test_succeed_and_fail_validate_their_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.event().succeed(delay=-1.0)
    with pytest.raises(ValueError):
        sim.event().fail(KeyError("k"), delay=float("nan"))
    ev = sim.event()
    with pytest.raises(ValueError):
        ev.succeed(delay=float("nan"))
    assert not ev.triggered  # refused before any state change
    assert sim.peek() == float("inf")


# ------------------------------------------------------------------ fire
def _relay(trigger):
    """A waiter on ``gate``, and a dispatch at t=5 that schedules another
    entry at its own instant, then triggers ``gate`` through
    ``trigger(gate)``.  Returns the log and the simulator."""
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        v = yield gate
        log.append((v, sim.now))

    def decide(_ev):
        sim.call_at(sim.now, lambda _e: log.append(("queued", sim.now)))
        trigger(gate)

    sim.process(waiter())
    sim.call_at(5.0, decide)
    sim.run()
    return log, sim


def test_fire_resumes_the_waiter_inside_the_firing_dispatch():
    fired, f_sim = _relay(lambda gate: gate.fire("done"))
    assert fired == [("done", 5.0), ("queued", 5.0)]
    # succeed schedules the relay behind the entry already queued
    succeeded, s_sim = _relay(lambda gate: gate.succeed("done"))
    assert succeeded == [("queued", 5.0), ("done", 5.0)]
    assert (f_sim.events_processed + f_sim.events_in_place + 1
            == s_sim.events_processed + s_sim.events_in_place)


def test_fire_refuses_a_triggered_or_cancelled_event():
    sim = Simulator()
    for first in (lambda ev: ev.succeed(1), lambda ev: ev.fire(1),
                  lambda ev: ev.fail(KeyError("k")), lambda ev: ev.cancel()):
        ev = sim.event()
        first(ev)
        with pytest.raises(SimulationError):
            ev.fire(2)
    with pytest.raises(SimulationError):
        sim.timeout(1.0).fire()


def test_a_fired_event_counts_in_neither_engine_counter():
    sim = Simulator()
    ev = sim.event()
    seen = []
    ev.add_callback(lambda e: seen.append((e.value, sim.now)))
    sim.call_at(3.0, lambda _e: ev.fire("v"))
    sim.run()
    assert seen == [("v", 3.0)]
    assert ev.processed and ev.ok
    # the call_at alone: the fire left no entry to dispatch
    assert sim.events_processed + sim.events_in_place == 1
    assert sim.peek() == float("inf")


def test_add_callback_on_a_fired_event_runs_at_once():
    sim = Simulator()
    ev = sim.event().fire("v")
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]

    def waiter():  # a yield on it continues without a dispatch
        seen.append((yield ev))
    sim.process(waiter())
    sim.run()
    assert seen == ["v", "v"]
    assert sim.events_processed + sim.events_in_place == 2  # boot, end


# ------------------------------------------------------------ keyed wakes
def test_a_keyed_wake_sorts_right_after_its_seq_at_its_instant():
    """A wake keyed after seq ``s`` runs at its instant after every entry
    allocated up to ``s`` and before every entry allocated later, wherever
    it was booked: before the entries, or inside a later dispatch.  It
    allocates no seq.  The push-only reference dispatches the same
    timeline."""
    def scenario(rec):
        sim = rec.sim
        for name in "abc":
            sim.call_at(5.0, rec.mark(name))                # seqs 1-3
        sim.call_keyed(5.0, 2, rec.mark("after b"))

        def later(_e):                                      # seq 4
            sim.call_keyed(5.0, 3, rec.mark("after c"))
            sim.call_at(5.0, rec.mark("later"))             # seq 5
        sim.call_at(1.0, later)
        sim.call_keyed(5.0, 0, rec.mark("first"))

    _both(scenario)
    rec = _Recorder()
    scenario(rec)
    rec.sim.run()
    assert [name for name, _ in rec.log] == [
        "first", "a", "b", "after b", "c", "after c", "later"]
    assert [s for _, _, s in rec.timeline] == [4, 0.5, 1, 2, 2.5, 3, 3.5, 5]
    assert rec.sim._seq == 5


def test_a_keyed_wake_runs_in_place_when_it_is_next():
    """Booked from a dispatch, a keyed wake runs in place when its key
    beats the heap: a same-instant entry allocated after its seq does
    not block it, one allocated before does."""
    def alone(rec):
        rec.sim.call_at(1.0, lambda _e: rec.sim.call_keyed(
            5.0, 1, rec.mark("k")))

    def before_a_later_entry(rec):
        def first(_e):
            rec.sim.call_keyed(5.0, 0, rec.mark("k"))
            rec.sim.call_at(5.0, rec.mark("later"))
        rec.sim.call_at(1.0, first)

    def behind_an_earlier_entry(rec):
        rec.sim.call_at(5.0, rec.mark("earlier"))           # seq 1
        rec.sim.call_at(1.0, lambda _e: rec.sim.call_keyed(
            5.0, 1, rec.mark("k")))

    assert _both(alone) == (1, 1)
    assert _both(before_a_later_entry) == (1, 2)
    assert _both(behind_an_earlier_entry) == (0, 3)


@pytest.mark.parametrize("drive", ["run", "step"])
def test_seq_now_is_the_half_integer_key_during_a_keyed_wake(drive):
    sim = Simulator()
    seen = []
    sim.call_at(2.0, lambda _e: seen.append(sim.seq_now))   # seq 1
    sim.call_keyed(2.0, 1, lambda _e: seen.append(sim.seq_now))
    if drive == "run":
        sim.run()
    else:
        sim.step()
        sim.step()
    assert seen == [1, 1.5]


def test_call_keyed_refuses_nan_but_clamps_float_dust():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_keyed(float("nan"), 0, lambda _e: None)
    seen = []
    sim.call_at(5.0, lambda _e: sim.call_keyed(
        sim.now - 1e-9, 1, lambda _e: seen.append(sim.now)))
    sim.run()
    assert seen == [5.0]
