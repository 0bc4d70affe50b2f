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



# ----------------------------------------------------------------- lease
def _twin(scenario):
    """Run ``scenario(sim, res, hold, log, keys)`` twice: once where
    ``hold(dur, tag)`` leases the unit and once where it books it.  Each
    hold logs its end key — the reserved one at a lease's grant, the
    end-wake's dispatch key for a booking — under ``tag``.  Asserts the
    two runs log the same keys and busy time; returns the leased run's
    dispatched keys and the booked run's."""
    runs = []
    for leased in (True, False):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        keys, log = [], {}
        sim.trace_dispatch = lambda t, p, s: keys.append((t, p, s))

        def hold(dur, tag, sim=sim, res=res, log=log, keys=keys,
                 leased=leased):
            if leased:
                res.lease(dur, lambda end: log.__setitem__(
                    tag, (end, 1, sim._seq)))
            else:
                _booker(sim, res, log, keys, tag, dur)(None)

        scenario(sim, res, hold, log, keys)
        sim.run(until=100.0)
        runs.append((log, res.busy_time(), res.in_use, keys))
    (log, busy, in_use, keys), (log_b, busy_b, in_use_b, keys_b) = runs
    assert log == log_b and busy == busy_b and in_use == in_use_b == 0
    return log, keys, keys_b


def _booker(sim, res, log, keys, tag, dur=1.0):
    """A call_at callback that books ``res`` and logs its end key."""
    def ended(_ev):
        log[tag] = keys[-1]
        res.release()
    return lambda _ev: res.book(dur, ended)


def test_idle_lease_schedules_nothing():
    """A lease on a free unit is granted inline, with its end, and takes
    no wake: the unit frees itself once the clock is past its key."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = []
    res.lease(5.0, lambda end: granted.append((sim.now, end, sim._seq)))
    assert granted == [(0.0, 5.0, 1)]      # the seq a book end-wake takes
    assert sim._heap == [] and res.in_use == 1
    sim.run(until=5.0)                     # every key at 5.0 has run
    assert sim.events_processed == 0
    assert res.in_use == 0 and res.busy_time() == 5.0
    res.lease(0.0, granted.append)         # ends now, at a key not yet run
    assert res.in_use == 1
    sim.run(until=6.0)
    assert res.in_use == 0 and res.busy_time() == 5.0


def test_bookers_at_the_lease_end_before_and_after_its_key():
    """A booker whose dispatch at the end instant precedes the reserved
    key queues, and the lease's end wake runs the handover at that key;
    one whose dispatch follows it waits behind the first, as it would
    behind a booking."""
    def scenario(sim, res, hold, log, keys):
        sim.call_at(4.0, _booker(sim, res, log, keys, "before"))  # (4,1,1)
        hold(4.0, "lease")                                         # (4,1,2)
        sim.call_at(4.0, _booker(sim, res, log, keys, "after"))   # (4,1,3)

    log, keys, keys_b = _twin(scenario)
    assert log == {"lease": (4.0, 1, 2), "before": (5.0, 1, 4),
                   "after": (6.0, 1, 5)}
    assert (4.0, 1, 2) in keys and keys == keys_b   # the parked wake ran


def test_booker_past_the_key_finds_the_unit_free():
    def scenario(sim, res, hold, log, keys):
        hold(4.0, "lease")                                         # (4,1,1)
        sim.call_at(4.0, _booker(sim, res, log, keys, "after"))   # (4,1,2)

    log, keys, keys_b = _twin(scenario)
    assert log == {"lease": (4.0, 1, 1), "after": (5.0, 1, 3)}
    assert keys == [(4.0, 1, 2), (5.0, 1, 3)]       # no wake for the lease
    assert keys_b == [(4.0, 1, 1)] + keys


def test_urgent_boot_at_the_lease_end_queues_behind_it():
    """A process booted at the end instant runs at an URGENT key, ahead
    of every NORMAL key there (its own seq is larger than the lease's):
    the lease still holds the unit."""
    def scenario(sim, res, hold, log, keys):
        def proc():
            _booker(sim, res, log, keys, "urgent")(None)
            yield 0.0

        sim.call_at(4.0, lambda _ev: sim.process(proc()))  # (4,1,1)
        hold(4.0, "lease")                                 # (4,1,2)

    log, keys, _ = _twin(scenario)
    assert keys[1] == (4.0, 0, 3)                    # the boot
    assert log == {"lease": (4.0, 1, 2), "urgent": (5.0, 1, 5)}


def test_cancelled_acquire_behind_a_lease():
    """An acquire queued behind a lease wakes its end; cancelled, it
    leaves a release with no one to hand over to, and the unit is free
    from the lease's end on."""
    def scenario(sim, res, hold, log, keys):
        hold(4.0, "lease")                                     # (4,1,1)
        grant = res.acquire()
        sim.call_at(2.0, lambda _ev: res.cancel(grant))
        sim.call_at(4.0, _booker(sim, res, log, keys, "next"))
        assert res.queue_len == 1

    log, keys, keys_b = _twin(scenario)
    assert log == {"lease": (4.0, 1, 1), "next": (5.0, 1, 4)}
    assert keys == keys_b


def test_lease_granted_by_a_release_reserves_the_handover_key():
    """A queued lease is granted inside the release that hands the unit
    over, with the seq that release would give a booking's end wake."""
    def scenario(sim, res, hold, log, keys):
        sim.call_at(0.0, _booker(sim, res, log, keys, "first", 2.0))
        sim.call_at(1.0, lambda _ev: hold(3.0, "lease"))
        sim.call_at(1.0, lambda _ev: hold(1.0, "lease2"))

    log, keys, keys_b = _twin(scenario)
    assert log == {"first": (2.0, 1, 4), "lease": (5.0, 1, 5),
                   "lease2": (6.0, 1, 6)}
    assert (5.0, 1, 5) in keys and (6.0, 1, 6) not in keys


def test_lease_needs_a_single_unit():
    sim = Simulator()
    with pytest.raises(ValueError, match="capacity-1"):
        Resource(sim, capacity=2).lease(1.0, lambda end: None)
