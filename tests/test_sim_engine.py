"""Unit tests for the DES engine: events, processes, combinators, errors."""

import pytest

from repro.sim import AllOf, AnyOf, Interrupt, SimulationError, Simulator
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


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(10, value="fast")
        t2 = sim.timeout(20, value="slow")
        result = yield AnyOf(sim, [t1, t2])
        return (sim.now, list(result.values()))

    p = sim.process(proc())
    assert sim.run(until=p) == (10, ["fast"])


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
