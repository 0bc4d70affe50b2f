"""Advanced DES engine tests: interrupts under resource holds, condition
failure propagation, nested processes, run() edge cases."""

import pytest

from repro.sim import (
    AllOf,
    Interrupt,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


def test_interrupt_while_waiting_on_resource_releases_nothing():
    """An interrupted waiter never held the resource; the holder's
    release must not grant to the ghost."""
    sim = Simulator()
    res = Resource(sim)
    got = []

    def holder():
        yield res.acquire()
        yield sim.timeout(100)
        res.release()

    def waiter():
        grant = res.acquire()
        try:
            yield grant
            got.append("granted")
            res.release()
        except Interrupt:
            res.cancel(grant)
            got.append("interrupted")

    def late_waiter():
        yield sim.timeout(50)
        yield res.acquire()
        got.append("late-granted")
        res.release()

    sim.process(holder())
    w = sim.process(waiter())
    sim.process(late_waiter())

    def interrupter():
        yield sim.timeout(10)
        w.interrupt()

    sim.process(interrupter())
    sim.run()
    assert got == ["interrupted", "late-granted"]
    assert res.in_use == 0


def test_allof_fails_fast_on_child_failure():
    sim = Simulator()
    bad = sim.event()
    slow = sim.timeout(1000)
    caught = []

    def waiter():
        try:
            yield AllOf(sim, [bad, slow])
        except RuntimeError as exc:
            caught.append((str(exc), sim.now))

    sim.process(waiter())
    bad.fail(RuntimeError("child died"))
    sim.run()
    assert caught == [("child died", 0)]


def test_nested_process_three_levels():
    sim = Simulator()

    def leaf():
        yield sim.timeout(5)
        return "leaf"

    def middle():
        v = yield sim.process(leaf())
        yield sim.timeout(5)
        return v + "+middle"

    def root():
        v = yield sim.process(middle())
        return v + "+root"

    assert sim.run(until=sim.process(root())) == "leaf+middle+root"
    assert sim.now == 10


def test_process_interrupt_cause_roundtrip():
    sim = Simulator()
    seen = []

    def victim():
        try:
            yield sim.timeout(100)
        except Interrupt as i:
            seen.append(i.cause)

    p = sim.process(victim())

    def attacker():
        yield sim.timeout(1)
        p.interrupt({"reason": "test", "code": 7})

    sim.process(attacker())
    sim.run()
    assert seen == [{"reason": "test", "code": 7}]


def test_run_until_event_already_fired():
    sim = Simulator()
    t = sim.timeout(10, value="done")
    sim.run()           # processes the timeout
    assert sim.run(until=t) == "done"   # already processed: returns at once


def test_store_interleaved_producers_consumers_conserve_items():
    sim = Simulator()
    store = Store(sim, capacity=3)
    produced, consumed = [], []

    def producer(base, n, gap):
        for i in range(n):
            item = base + i
            yield store.put(item)
            produced.append(item)
            yield sim.timeout(gap)

    def consumer(n, gap):
        for _ in range(n):
            consumed.append((yield store.get()))
            yield sim.timeout(gap)

    sim.process(producer(0, 10, 3))
    sim.process(producer(100, 10, 7))
    sim.process(consumer(12, 5))
    sim.process(consumer(8, 11))
    sim.run()
    assert sorted(consumed) == sorted(produced)
    assert len(consumed) == 20
    assert len(store) == 0


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_resource_cancel_then_release_does_not_double_grant():
    sim = Simulator()
    res = Resource(sim)
    g1 = res.acquire()
    g2 = res.acquire()
    g3 = res.acquire()
    res.cancel(g2)
    res.release()           # g1's slot; grants to g3, not the cancelled g2
    sim.run()
    assert g3.triggered and not g2.triggered
    assert res.in_use == 1
