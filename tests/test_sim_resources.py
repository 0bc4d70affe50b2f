"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    g1, g2 = res.acquire(), res.acquire()
    g3 = res.acquire()
    sim.run()
    assert g1.triggered and g2.triggered
    assert not g3.triggered
    assert res.in_use == 2
    assert res.queue_len == 1


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag, hold):
        grant = res.acquire()
        yield grant
        order.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release()

    for i, hold in enumerate([10, 10, 10]):
        sim.process(worker(i, hold))
    sim.run()
    assert order == [(0, 0), (1, 10), (2, 20)]


def test_resource_release_idle_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_cancel_pending_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    g1 = res.acquire()
    g2 = res.acquire()
    res.cancel(g2)
    res.release()
    sim.run()
    assert g1.triggered
    assert not g2.triggered
    assert res.in_use == 0


def test_resource_busy_time_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        yield res.acquire()
        yield sim.timeout(30)
        res.release()
        yield sim.timeout(70)

    sim.process(worker())
    sim.run()
    assert sim.now == 100
    assert res.busy_time() == pytest.approx(30)
    assert res.utilization() == pytest.approx(0.3)


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)

    def proc():
        yield store.put("x")
        item = yield store.get()
        return item

    p = sim.process(proc())
    assert sim.run(until=p) == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter():
        item = yield store.get()
        got.append((item, sim.now))

    def putter():
        yield sim.timeout(40)
        yield store.put("late")

    sim.process(getter())
    sim.process(putter())
    sim.run()
    assert got == [("late", 40)]


def test_store_fifo_item_order():
    sim = Simulator()
    store = Store(sim)
    for i in range(5):
        store.put(i)
    out = []

    def drain():
        for _ in range(5):
            out.append((yield store.get()))

    sim.process(drain())
    sim.run()
    assert out == [0, 1, 2, 3, 4]


def test_store_capacity_blocks_putters():
    sim = Simulator()
    store = Store(sim, capacity=1)
    timeline = []

    def producer():
        yield store.put("a")
        timeline.append(("a-accepted", sim.now))
        yield store.put("b")
        timeline.append(("b-accepted", sim.now))

    def consumer():
        yield sim.timeout(25)
        item = yield store.get()
        timeline.append((f"got-{item}", sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert timeline == [("a-accepted", 0), ("got-a", 25), ("b-accepted", 25)]
    assert store.items == ("b",)


def test_store_try_get_nonblocking():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put("v")
    assert store.try_get() == "v"
    assert store.try_get() is None


def test_store_handoff_to_waiting_getter():
    """A put with a parked getter bypasses the buffer entirely."""
    sim = Simulator()
    store = Store(sim, capacity=1)
    got = []

    def getter():
        got.append((yield store.get()))

    sim.process(getter())
    sim.run()
    store.put("direct")
    sim.run()
    assert got == ["direct"]
    assert len(store) == 0


def test_bookings_and_acquires_share_one_fifo():
    """A timed booking and a process acquire queue on the same FIFO: each
    waits for the holder ahead of it, and the busy span stays open."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def ended(tag):
        def cb(_ev):
            order.append((tag, sim.now))
            res.release()
        return cb

    def stepped():
        yield res.acquire()
        order.append(("proc", sim.now))
        yield 5.0
        res.release()

    res.book(10.0, ended("a"))             # granted now, ends at 10
    sim.process(stepped())                 # queues behind "a"
    sim.call_at(1.0, lambda _e: res.book(3.0, ended("b")))  # behind proc
    sim.run()
    assert order == [("a", 10.0), ("proc", 10.0), ("b", 18.0)]
    assert res.in_use == 0 and res.queue_len == 0
    assert res.busy_time() == 18.0


def test_claim_runs_its_callback_at_the_handover():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = []
    assert res.claim(lambda r: granted.append("first"))
    assert not res.claim(lambda r: granted.append((r is res, sim.now)))
    assert granted == []                   # an immediate grant runs no cb
    sim.call_at(7.0, lambda _e: res.release())
    sim.run()
    assert granted == [(True, 7.0)] and res.in_use == 1
    res.release()
    assert res.in_use == 0 and res.busy_time() == 7.0
