"""Property-based tests (hypothesis) for the DES kernel."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, Interrupt, Resource, Simulator, Store
from repro.sim.stats import StatAccumulator
from tests.engine_ref import always_push


@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False),
                min_size=1, max_size=40))
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    """However timeouts are created, observed firing times never go back."""
    sim = Simulator()
    observed = []

    def proc(d):
        yield sim.timeout(d)
        observed.append(sim.now)

    for d in delays:
        sim.process(proc(d))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert sim.now == max(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1000,
                                    allow_nan=False),
                          st.floats(min_value=0, max_value=1000,
                                    allow_nan=False)),
                min_size=1, max_size=30))
def test_resource_never_exceeds_capacity_and_serves_everyone(jobs):
    """Random arrival/service times: one holder at a time, all jobs
    done."""
    sim = Simulator()
    res = Resource(sim)
    done = [0]

    def job(arrival, service):
        yield sim.timeout(arrival)
        yield res.acquire()
        assert res.in_use == 1
        try:
            yield sim.timeout(service)
        finally:
            res.release()
        done[0] += 1

    for arrival, service in jobs:
        sim.process(job(arrival, service))
    sim.run()
    assert done[0] == len(jobs)
    assert res.in_use == 0


@given(st.lists(st.integers(), min_size=1, max_size=50))
def test_store_is_fifo_for_any_item_sequence(items):
    sim = Simulator()
    store = Store(sim)
    out = []

    def producer():
        for item in items:
            yield store.put(item)
            yield sim.timeout(1)

    def consumer():
        for _ in items:
            out.append((yield store.get()))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert out == items


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=100),
                          st.integers(min_value=1, max_value=100)),
                min_size=1, max_size=25))
def test_resource_fifo_grant_order(requests):
    """Grants happen in request order regardless of hold times."""
    sim = Simulator()
    res = Resource(sim)
    grant_order = []

    def job(idx, hold):
        yield res.acquire()
        grant_order.append(idx)
        try:
            yield sim.timeout(hold)
        finally:
            res.release()

    # All requests issued at t=0 in index order.
    for idx, (_, hold) in enumerate(requests):
        sim.process(job(idx, hold))
    sim.run()
    assert grant_order == list(range(len(requests)))


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=60),
       st.integers(min_value=1, max_value=59))
def test_stat_accumulator_merge_equals_pooled(xs, split):
    split = min(split, len(xs) - 1)
    a, b, pooled = StatAccumulator(), StatAccumulator(), StatAccumulator()
    for x in xs[:split]:
        a.add(x)
        pooled.add(x)
    for x in xs[split:]:
        b.add(x)
        pooled.add(x)
    a.merge(b)
    assert a.count == pooled.count
    assert abs(a.mean - pooled.mean) < 1e-6 * max(1, abs(pooled.mean))
    assert a.min == pooled.min and a.max == pooled.max


@given(st.lists(st.floats(min_value=0.1, max_value=1e5, allow_nan=False),
                min_size=1, max_size=30))
@settings(max_examples=50)
def test_busy_time_never_exceeds_elapsed(holds):
    sim = Simulator()
    res = Resource(sim)

    def job(hold):
        yield res.acquire()
        try:
            yield sim.timeout(hold)
        finally:
            res.release()

    for h in holds:
        sim.process(job(h))
    sim.run()
    assert 0 < res.busy_time() <= sim.now + 1e-9
    assert 0 < res.utilization() <= 1.0 + 1e-12


# ------------------------------------------------ in-place dispatch
_DELAY = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.5])
_EV = st.integers(min_value=0, max_value=3)
_STEP = st.one_of(
    st.tuples(st.just("sleep"), _DELAY),
    st.tuples(st.just("timeout"), _DELAY),
    st.tuples(st.sampled_from(["succeed", "fail"]), _DELAY, _EV),
    st.tuples(st.just("wait"), _EV),
    st.tuples(st.just("call_at"), _DELAY, st.booleans()),
    st.tuples(st.just("call_tail"), _DELAY),
    st.tuples(st.sampled_from(["acquire", "hold_end", "hold_untimed",
                               "hold_grant", "hold_both"]), _DELAY),
    st.tuples(st.just("put"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("get")),
    st.tuples(st.just("all_of"), _EV, _EV),
    st.tuples(st.sampled_from(["interrupt", "spawn"]),
              st.integers(min_value=0, max_value=5)),
)
_PROGRAM = st.lists(st.lists(_STEP, max_size=8), min_size=1, max_size=5)
_RUN = st.one_of(
    st.just(("drain",)),
    st.tuples(st.just("until"), st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.0])),
    st.tuples(st.just("event"), st.integers(min_value=0, max_value=4)),
)
#: Processes one program may start, spawned ones included.
_MAX_PROCS = 12


def _execute(program, run):
    """Run ``program`` — one step list per process — and return what it
    did: the traced ``(time, priority, seq)`` timeline, a log of every
    observation, each ``run()`` call's result or error, the clock, and
    the simulator (for its counters)."""
    sim = Simulator()
    timeline, log, results = [], [], []
    sim.trace_dispatch = lambda w, p, s: timeline.append((w, p, s))
    shared = [sim.event() for _ in range(4)]
    res = Resource(sim)
    store = Store(sim)
    procs = []

    def note(*what):
        log.append((sim.now, *what))

    def later(i, k, what):
        return lambda _ev: note(i, k, what)

    def start(steps):
        i = len(procs)
        procs.append(sim.process(actor(i, steps), name=f"p{i}"))

    def actor(i, steps):
        for k, step in enumerate(steps):
            kind = step[0]
            try:
                if kind == "sleep":
                    yield step[1]
                elif kind == "timeout":
                    note(i, k, (yield sim.timeout(step[1], value=k)))
                elif kind in ("succeed", "fail"):
                    ev = shared[step[2]]
                    if not ev.triggered:
                        if kind == "succeed":
                            ev.succeed(i, delay=step[1])
                        else:
                            ev.fail(KeyError(i), delay=step[1])
                elif kind == "wait":
                    note(i, k, (yield shared[step[1]]))
                elif kind == "call_at":
                    handle = sim.call_at(sim.now + step[1], later(i, k, "at"))
                    if step[2]:
                        handle.cancel()
                elif kind == "call_tail":
                    sim.call_tail(sim.now + step[1], later(i, k, "tail"))
                elif kind == "acquire":
                    yield res.acquire()
                    try:
                        yield step[1]
                    finally:
                        res.release()
                elif kind == "hold_end":
                    res.hold(step[1], end=lambda _ev, i=i, k=k: note(
                        i, k, "ended"))
                elif kind == "hold_grant":
                    res.hold(step[1], lambda end, i=i, k=k: note(
                        i, k, "granted", end))
                elif kind == "hold_both":
                    res.hold(step[1],
                             lambda end, i=i, k=k: note(i, k, "both", end),
                             lambda _ev, i=i, k=k: note(i, k, "both ended"))
                elif kind == "hold_untimed":
                    def granted(_end, i=i, k=k, hold=step[1]):
                        note(i, k, "claimed")
                        sim.call_tail(sim.now + hold,
                                      lambda _ev: res.release())
                    res.hold(None, granted)
                elif kind == "put":
                    yield store.put(step[1])
                elif kind == "get":
                    note(i, k, (yield store.get()))
                elif kind == "all_of":
                    both = [shared[step[1]], shared[step[2]]]
                    note(i, k, sorted((yield AllOf(sim, both)).values()))
                elif kind == "interrupt":
                    if step[1] < len(procs):
                        procs[step[1]].interrupt(k)
                elif len(procs) < _MAX_PROCS:  # spawn
                    start(program[step[1] % len(program)])
            except Interrupt as why:
                note(i, k, "interrupted", why.cause)
            except KeyError as err:
                note(i, k, "failed", err.args)
        note(i, "end")
        return i

    for steps in program:
        start(steps)
    calls = [dict(until=run[1])] if run[0] == "until" else []
    if run[0] == "event":
        calls.append(dict(until=(shared + procs)[run[1]]))
    calls.append({})  # then drain what is left
    for kwargs in calls:
        try:
            results.append(("ok", repr(sim.run(**kwargs))))
        except Exception as exc:  # compared across engines, not judged
            results.append(("raised", type(exc).__name__, str(exc)))
    return {"timeline": timeline, "log": log, "results": results,
            "now": sim.now, "cancelled": sim.events_cancelled}, sim


@given(_PROGRAM, _RUN)
@settings(max_examples=400, deadline=None)
def test_in_place_dispatch_matches_an_engine_that_always_pushes(program,
                                                                run):
    """Every trigger kind — sleeps (0.0 included), timeouts, delayed
    succeed/fail, ``call_at`` with cancels, ``call_tail``, Resource
    acquire and timed (``end``, ``grant`` or both) and untimed holds,
    Store put/get, ``AllOf``, interrupts,
    spawns inside a dispatch — under each way to call ``run()``: the
    engine dispatches the timeline, outcomes and clock of a reference
    in which every entry takes a heap round trip, and its dispatched
    plus in-place count equals the reference's dispatches."""
    got, sim = _execute(program, run)
    with always_push():
        ref, ref_sim = _execute(program, run)
    assert got == ref
    assert ref_sim.events_in_place == 0
    assert (sim.events_processed + sim.events_in_place
            == ref_sim.events_processed == len(ref["timeline"]))


# ---------------------- a hold without ``end`` is a hold with one
_AT = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
_HOLD = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
_REQUEST = st.tuples(
    st.sampled_from(["book", "lease", "lease", "claim", "acquire", "probe"]),
    _AT, _HOLD, st.booleans(),               # urgent: from a process boot
    st.one_of(st.none(), _HOLD))             # an acquire's patience


def _hold_program(requests, leased):
    """Issue ``requests`` on one unit: a ``book`` is a timed hold with
    ``end``, a ``lease`` one with only a ``grant`` unless ``leased`` is
    false (then it is a ``book``), a ``claim`` an untimed hold.  Returns
    what each request saw — a timed hold's end key, a claim's or
    acquire's grant key, a probe's busy time and occupancy — then the
    dispatched keys and each lease's reserved end key."""
    sim = Simulator()
    res = Resource(sim)
    keys, log, reserved = [], {}, set()
    sim.trace_dispatch = lambda t, p, s: keys.append((t, p, s))

    def ended(i):
        def cb(_ev):
            log[i] = ("end", keys[-1])
        return cb

    def request(i, kind, hold, patience):
        if kind == "book" or (kind == "lease" and not leased):
            res.hold(hold, end=ended(i))
        elif kind == "lease":
            def granted(end):
                log[i] = ("end", (end, 1, sim._seq))
                reserved.add(log[i][1])
            res.hold(hold, granted)
        elif kind == "claim":
            def claimed(_end):
                log[i] = ("claim", keys[-1])
                sim.call_tail(sim.now + hold, lambda _ev: res.release())
            res.hold(None, claimed)
        elif kind == "acquire":
            grant = res.acquire()

            def holder():
                yield grant
                log[i] = ("acquire", keys[-1])
                yield hold
                res.release()
            sim.process(holder())
            if patience is not None:
                sim.call_at(sim.now + patience,
                            lambda _ev: res.cancel(grant))
        else:
            log[i] = ("probe", res.busy_time(), res.in_use, res.queue_len)

    def boot(*args):
        request(*args)
        yield 0.0

    for i, (kind, at, hold, urgent, patience) in enumerate(requests):
        args = (i, kind, hold, patience)
        sim.call_at(at, (lambda _ev, a=args: sim.process(boot(*a)))
                    if urgent else (lambda _ev, a=args: request(*a)))
    sim.run(until=100.0)
    log["final"] = (res.busy_time(), res.in_use, res.queue_len)
    return log, keys, reserved


@given(st.lists(_REQUEST, min_size=1, max_size=14))
@settings(max_examples=300, deadline=None)
def test_lease_grants_and_hands_over_as_a_book_does(requests):
    """Random timed holds with ``end`` ("book") or only a ``grant``
    ("lease"), untimed holds ("claim") and acquires (some cancelled),
    some from URGENT process boots, at random instants on one unit,
    against a twin in which every lease has an ``end`` instead: equal
    grant instants and keys, equal handover keys, bit-equal busy time at
    every probe and at the end.  The twin dispatches exactly the lease
    run's keys plus the end wakes of the leases nobody queued behind."""
    log, keys, reserved = _hold_program(requests, leased=True)
    log_b, keys_b, _ = _hold_program(requests, leased=False)
    assert log == log_b
    assert set(keys) <= set(keys_b)
    assert set(keys_b) - set(keys) <= reserved
    assert len(keys_b) - len(keys) == len(reserved - set(keys))
