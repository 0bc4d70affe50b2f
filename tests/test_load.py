"""Tests for the open-loop serving tier (`repro.load` +
`workloads/arrivals`): arrival processes, the lease cache and
invalidation directory, sticky write routing, the KV front door through
the tenancy plane, the open-loop generator, and the cache-coherence
checker."""

import gc
import weakref

import numpy as np
import pytest

from repro import build
from repro.apps.hashtable.backend import HashTableBackend
from repro.apps.hashtable.layout import TableLayout
from repro.check import Sanitizer
from repro.hw.params import ServiceConfig, TenantSpec
from repro.load import (
    InvalidationDirectory,
    KvFrontDoor,
    LeaseCache,
    OpenLoopGenerator,
    find_knee,
    preload_table,
    sticky_owner_key,
)
from repro.sim import Process, SimulationError, Simulator
from repro.sim.rng import make_rng
from repro.tenancy import ServicePlane
from repro.workloads import (
    DIURNAL_SHAPE,
    DiurnalTrace,
    MarkovOnOffProcess,
    PoissonProcess,
    make_arrivals,
)


# ------------------------------------------------------- arrival processes

def test_poisson_rate_determinism_and_bounds():
    proc = PoissonProcess(1.0)                    # 1 op/us
    horizon = 1_000_000.0
    times = proc.arrival_times(horizon, make_rng(42))
    again = proc.arrival_times(horizon, make_rng(42))
    np.testing.assert_array_equal(times, again)   # pure function of seed
    assert len(times) == pytest.approx(1000, rel=0.15)
    assert np.all(np.diff(times) >= 0)            # sorted
    assert times[0] >= 0 and times[-1] < horizon


def test_bursty_long_run_mean_matches_nominal_rate():
    proc = MarkovOnOffProcess(1.0)
    times = proc.arrival_times(2_000_000.0, make_rng(7))
    # Long-run mean matches rate_mops; dwell randomness leaves slack.
    assert len(times) == pytest.approx(2000, rel=0.30)
    # Burstiness: ON periods inject at burst_factor x the mean rate, so
    # inter-arrival gaps are far more dispersed than Poisson's.
    gaps = np.diff(times)
    assert proc.burst_factor > 1.0
    assert gaps.std() > 1.5 * gaps.mean()


def test_diurnal_trace_follows_the_shape():
    proc = DiurnalTrace(2.0)
    horizon = 2_400_000.0                          # 100 us per bucket
    times = proc.arrival_times(horizon, make_rng(9))
    bucket_ns = horizon / len(DIURNAL_SHAPE)
    counts = np.histogram(times, bins=len(DIURNAL_SHAPE),
                          range=(0, horizon))[0]
    peak = int(np.argmax(DIURNAL_SHAPE))
    trough = int(np.argmin(DIURNAL_SHAPE))
    assert counts[peak] > 2 * counts[trough]
    assert bucket_ns * proc.shape.mean() == pytest.approx(bucket_ns)


def test_arrival_validation_and_factory():
    with pytest.raises(ValueError):
        PoissonProcess(0.0)
    with pytest.raises(ValueError):
        PoissonProcess(1.0).arrival_times(-1.0, make_rng(0))
    with pytest.raises(ValueError):
        MarkovOnOffProcess(1.0, on_ns=0.0)
    with pytest.raises(ValueError):
        DiurnalTrace(1.0, shape=(0.0, 0.0))
    with pytest.raises(ValueError):
        make_arrivals("pareto", 1.0)
    for kind in ("poisson", "bursty", "diurnal"):
        assert make_arrivals(kind, 2.0).kind == kind


# ------------------------------------------------------------- lease cache

def test_lease_cache_lru_eviction_and_counters():
    sim, cluster, ctx = build(machines=2)
    cache = LeaseCache(sim, capacity=2, lease_ns=1e6)
    assert cache.get(1) is None                   # miss
    cache.put(1, 1, b"a")
    cache.put(2, 1, b"b")
    assert cache.get(1) == (1, b"a")              # hit; 1 is now MRU
    cache.put(3, 1, b"c")                         # evicts LRU (key 2)
    assert cache.get(2) is None
    assert cache.get(3) == (1, b"c")
    assert (cache.hits, cache.misses) == (2, 2)
    assert cache.fills == 3 and cache.evictions == 1
    assert cache.hit_rate == pytest.approx(0.5)
    with pytest.raises(ValueError):
        LeaseCache(sim, capacity=0)
    with pytest.raises(ValueError):
        LeaseCache(sim, lease_ns=0.0)


def test_lease_cache_entries_expire_with_the_lease():
    sim, cluster, ctx = build(machines=2)
    cache = LeaseCache(sim, capacity=4, lease_ns=100.0)
    cache.put(1, 1, b"a")
    assert cache.get(1) == (1, b"a")
    sim.run(until=sim.timeout(100.0))
    assert cache.get(1) is None                   # expiry is >= lease_ns
    assert cache.expirations == 1 and len(cache) == 0


def test_directory_mints_monotone_versions_and_fans_out():
    sim, cluster, ctx = build(machines=2)
    directory = InvalidationDirectory(sim)
    c1 = LeaseCache(sim, name="c1")
    c2 = LeaseCache(sim, name="c2")
    directory.register(c1)
    directory.register(c2)
    directory.seed(5, 3)
    assert directory.next_version(5) == 4         # continues past the seed
    assert directory.next_version(5) == 5
    c1.put(5, 4, b"x")
    c2.put(5, 4, b"x")
    c2.put(6, 1, b"y")
    assert directory.ack_write(5, 4) == 2         # dropped from both
    assert directory.acked[5] == 4
    assert c1.get(5) is None and c2.get(6) == (1, b"y")
    # A later-acked lower version never regresses the frontier.
    directory.ack_write(5, 2)
    assert directory.acked[5] == 4


# ---------------------------------------------------- sticky write routing

def test_sticky_owner_key_ownership_invariant():
    n_owners, n_keys = 3, 10                      # n_keys % n_owners != 0
    for owner in range(n_owners):
        for key in range(n_keys):
            owned = sticky_owner_key(key, owner, n_owners, n_keys)
            assert 0 <= owned < n_keys
            assert owned % n_owners == owner      # exactly one writer/key
            assert abs(owned - key) <= n_owners   # popularity preserved
    with pytest.raises(ValueError):
        sticky_owner_key(0, 3, 3, 10)
    with pytest.raises(ValueError):
        sticky_owner_key(0, 0, 10, 10)


# ----------------------------------------------------------- KV front door

def serving_rig(machines=3, n_keys=64, cache_on=True, **tenant_kwargs):
    sim, cluster, ctx = build(machines=machines)
    san = Sanitizer(sim)
    plane = ServicePlane(ctx, ServiceConfig(
        tenants=(TenantSpec("web", **tenant_kwargs),)))
    layout = TableLayout(n_keys=n_keys, hot_keys=0,
                         sockets=ctx.params.sockets_per_machine)
    backend = HashTableBackend(ctx, 0, layout)
    directory = InvalidationDirectory(sim)
    preload_table(backend, directory)
    cache = LeaseCache(sim, capacity=16, lease_ns=1e6) if cache_on else None
    door = KvFrontDoor(plane, backend, "web", machine=1,
                       cache=cache, directory=directory)
    return sim, san, plane, door


def test_frontdoor_get_put_roundtrip():
    sim, san, plane, door = serving_rig(cache_on=False)
    results = []

    def client():
        results.append((yield from door.get(7)))          # preloaded v1
        results.append((yield from door.put(7, b"new")))  # mints v2
        results.append((yield from door.get(7)))

    sim.run(until=sim.process(client()))
    sim.run()
    r0, r1, r2 = results
    assert r0.outcome == "ok" and r0.version == 1
    assert r1.outcome == "ok" and r1.version == 2
    assert r2.outcome == "ok" and r2.version == 2
    assert r2.value.rstrip(b"\0") == b"new"       # fixed-width entry pad
    assert all(r.served for r in results)
    assert plane.metrics["web"].ops == 3
    assert san.finalize().ok


def test_frontdoor_cache_absorbs_reads_and_invalidates_on_write():
    sim, san, plane, door = serving_rig()
    outcomes = []

    def client():
        outcomes.append((yield from door.get(3)).outcome)   # miss -> fill
        outcomes.append((yield from door.get(3)).outcome)   # hit
        yield from door.put(3, b"w")                        # invalidate
        outcomes.append((yield from door.get(3)).outcome)   # miss again

    sim.run(until=sim.process(client()))
    sim.run()
    assert outcomes == ["ok", "hit", "ok"]
    slo = plane.metrics.snapshot()["web"]
    assert slo["cache_hits"] == 1
    assert slo["cache_misses"] == 2
    assert slo["cache_invalidations"] == 1
    assert slo["cache_hit_rate"] == pytest.approx(1 / 3)
    assert door.cache.hit_rate == pytest.approx(1 / 3)
    report = san.finalize()
    assert report.ok, report.render()
    assert san.cache.fills_seen == 2 and san.cache.hits_seen == 1


def test_frontdoor_surfaces_shed_as_the_outcome():
    sim, san, plane, door = serving_rig(max_inflight=1)
    results = []

    def client(key):
        results.append((yield from door.get(key)))

    # Two concurrent GETs against a window of 1: one is shed, explicitly.
    procs = [sim.process(client(k)) for k in (1, 2)]
    for p in procs:
        sim.run(until=p)
    sim.run()
    assert sorted(r.outcome for r in results) == ["ok", "shed"]
    shed = next(r for r in results if r.outcome == "shed")
    assert not shed.served and shed.version == 0
    assert san.finalize().ok


def test_cache_checker_flags_a_stale_hit():
    class _Stub:
        name = "stub"

    sim, cluster, ctx = build(machines=2)
    san = Sanitizer(sim, checkers=("cache",))
    san.on_cache_invalidate(9, version=5)         # frontier -> 5
    san.on_cache_fill(_Stub(), 9, version=5)      # coherent
    san.on_cache_hit(_Stub(), 9, version=3)       # stale: behind frontier
    report = san.finalize()
    assert not report.ok
    assert report.counts["cache"] == 1


# -------------------------------------------------------------- open loop

def test_open_loop_generator_tallies_outcomes():
    sim, cluster, ctx = build(machines=2)
    outcomes = ["ok", "hit", "shed", "error", "ok"]

    def request_fn(i):
        yield sim.timeout(10.0)
        return outcomes[i]

    gen = OpenLoopGenerator(sim, request_fn, [0.0, 5.0, 5.0, 20.0, 30.0])
    with pytest.raises(RuntimeError):
        gen.drain()                               # start() first
    gen.start()
    gen.drain()
    assert gen.offered == 5
    assert gen.delivered == 3 and gen.hits == 1
    assert gen.sheds == 1 and gen.errors == 1
    assert gen.shed_rate == pytest.approx(0.2)
    assert len(gen.latencies) == 3
    assert gen.latency_percentiles()["p50"] == pytest.approx(10.0)
    with pytest.raises(RuntimeError):
        gen.start()                               # double start


def test_open_loop_generator_rejects_unknown_outcomes():
    sim, cluster, ctx = build(machines=2)

    def request_fn(i):
        yield sim.timeout(1.0)
        return "lost"

    gen = OpenLoopGenerator(sim, request_fn, [0.0])
    gen.start()
    with pytest.raises(Exception, match="unknown outcome"):
        gen.drain()


def test_open_loop_generator_rejects_late_or_unsorted_arrivals():
    sim = Simulator()
    with pytest.raises(ValueError, match="arrival 2"):
        OpenLoopGenerator(sim, lambda i: iter(()), [1.0, 5.0, 3.0]).start()
    sim.run(until=100.0)
    with pytest.raises(ValueError, match="sim.now"):
        OpenLoopGenerator(sim, lambda i: iter(()), [50.0, 150.0]).start()
    assert sim.peek() == float("inf")             # nothing was booked


def test_open_loop_costs_two_events_per_request_and_no_processes(
        monkeypatch):
    sim = Simulator()
    spawned = []
    process = Simulator.process

    def counting(self, generator, name=""):
        spawned.append(name)
        return process(self, generator, name)

    monkeypatch.setattr(Simulator, "process", counting)

    def request_fn(i):
        yield 10.0
        return "ok"

    n = 50
    gen = OpenLoopGenerator(sim, request_fn, [3.0 * (k + 1) for k in range(n)])
    gen.start()
    gen.drain()
    # One arrival wake-up and one sleep per request, plus the idle event.
    assert sim.events_processed == 2 * n + 1
    assert spawned == []
    assert gen.delivered == n and gen.latencies == [10.0] * n
    assert sim.now == 3.0 * n + 10.0


def test_open_loop_retains_no_request_generators():
    sim = Simulator()
    refs = []

    def request_fn(i):
        def body():
            yield 1.0
            yield sim.timeout(2.0)
            return "ok"
        g = body()
        refs.append(weakref.ref(g))
        return g

    gen = OpenLoopGenerator(sim, request_fn, [1.0, 1.0, 4.0, 9.0])
    gen.start()
    gen.drain()
    assert len(refs) == 4
    # Freed by refcount alone: run() pauses the cyclic collector, so a
    # driver cycle per request would pile up for the whole run.
    assert all(r() is None for r in refs)
    gc.collect()
    assert not [o for o in gc.get_objects()
                if isinstance(o, Process) and o.sim is sim]


def test_open_loop_request_crash_names_the_request():
    sim = Simulator()

    def request_fn(i):
        yield 5.0
        if i == 1:
            raise KeyError("boom")
        return "ok"

    gen = OpenLoopGenerator(sim, request_fn, [1.0, 2.0], name="loud")
    gen.start()
    with pytest.raises(SimulationError, match=r"loud\.r1") as info:
        gen.drain()
    assert isinstance(info.value.__cause__, KeyError)


@pytest.mark.parametrize("bad", [5, -1.0])       # int; delay into the past
def test_open_loop_rejects_non_event_yields(bad):
    sim = Simulator()

    def request_fn(i):
        yield bad
        return "ok"

    gen = OpenLoopGenerator(sim, request_fn, [1.0], name="bad")
    gen.start()
    with pytest.raises(SimulationError, match=rf"bad\.r0 yielded {bad}"):
        gen.drain()


def test_open_loop_equal_arrivals_start_in_index_order():
    sim = Simulator()
    started = []

    def request_fn(i):
        started.append((i, sim.now))
        yield 1.0
        return "ok"

    gen = OpenLoopGenerator(sim, request_fn, [5.0, 5.0, 5.0])
    gen.start()
    gen.drain()
    assert started == [(0, 5.0), (1, 5.0), (2, 5.0)]
    assert gen.offered == 3 and gen.delivered == 3


def test_open_loop_books_the_next_arrival_before_running_due_requests():
    # r0 wakes at exactly r1's arrival instant.  The next arrival was
    # booked before r0 ran, so it holds the earlier sequence number and
    # r1 starts first — the order a process per request produced.
    sim = Simulator()
    log = []

    def request_fn(i):
        log.append(("start", i))
        yield 5.0
        log.append(("wake", i))
        return "ok"

    gen = OpenLoopGenerator(sim, request_fn, [1.0, 6.0])
    gen.start()
    gen.drain()
    assert log == [("start", 0), ("start", 1), ("wake", 0), ("wake", 1)]


def test_open_loop_processed_event_continues_inline():
    sim = Simulator()
    done = sim.event()
    done.succeed("v")
    failed = sim.event()
    failed.fail(KeyError("k"))
    sim.run()
    seen = []

    def request_fn(i):
        t = sim.now
        got = yield done
        try:
            yield failed
        except KeyError:
            seen.append((got, sim.now - t))
        return "ok"

    before = sim.events_processed
    gen = OpenLoopGenerator(sim, request_fn, [3.0])
    gen.start()
    gen.drain()
    assert seen == [("v", 0.0)]
    assert sim.events_processed - before == 2     # arrival + idle only


def test_find_knee():
    assert find_knee([1, 2, 4, 8], [1.0, 1.99, 3.0, 3.2]) == 2
    assert find_knee([1, 2, 4], [1.0, 2.0, 3.9]) is None
    assert find_knee([], []) is None
    with pytest.raises(ValueError):
        find_knee([1, 2], [1])
