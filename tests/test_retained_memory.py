"""Retained memory must not grow with run length.

Each test warms a rig up, then reads the bytes ``tracemalloc`` sees after
N more operations and after 4N, and bounds the difference, as
``test_closed_loop_retained_bytes_flat_in_run_length`` does for a raw
verbs loop.  Per-op objects must die with their op: ``Simulator.run``
pauses the cyclic collector, and a CQE that no one reaps stays in its
queue for the whole run.
"""

import tracemalloc

from repro import build
from repro.apps.hashtable.backend import HashTableBackend
from repro.apps.hashtable.layout import TableLayout
from repro.apps.txn import TxnClient, TxnStore
from repro.hw.params import HardwareParams, ServiceConfig, TenantSpec
from repro.load import (InvalidationDirectory, KvFrontDoor, OpenLoopGenerator,
                        preload_table)
from repro.tenancy import ServicePlane
from repro.verbs import Worker

N = 500


def _growth(phase) -> int:
    """Traced bytes retained by ``phase(3 * N)`` on top of ``phase(N)``,
    after a warm-up ``phase(64)``."""
    phase(64)
    tracemalloc.start()
    try:
        phase(N)
        after_n = tracemalloc.get_traced_memory()[0]
        phase(3 * N)
        after_4n = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return after_4n - after_n


def test_open_loop_front_door_retains_only_its_slo_record():
    """Open-loop GETs and PUTs through a ``KvFrontDoor`` and the service
    plane.  What a request may leave behind is the tenant's SLO latency
    sample: one 8 B double in an ``array('d')``, plus the array's
    over-allocation.  Measured: 8.2 B per extra request (32.8 B as a
    float object and its list slot, 153 B while every CQE stayed in its
    queue)."""
    sim, cluster, ctx = build(machines=2)
    plane = ServicePlane(ctx, ServiceConfig(tenants=(TenantSpec("web"),)))
    layout = TableLayout(n_keys=64, hot_keys=0,
                         sockets=ctx.params.sockets_per_machine)
    backend = HashTableBackend(ctx, 0, layout)
    directory = InvalidationDirectory(sim)
    preload_table(backend, directory)
    door = KvFrontDoor(plane, backend, "web", machine=1, directory=directory)

    def request(j):
        if j % 8 == 0:
            res = yield from door.put(j % 64, b"v")
        else:
            res = yield from door.get(j % 64)
        return res.outcome

    def phase(k):
        t0 = sim.now + 1.0
        gen = OpenLoopGenerator(sim, request,
                                [t0 + 500.0 * j for j in range(k)])
        gen.start()
        gen.drain()
        assert gen.delivered == k

    growth = _growth(phase)
    assert plane.metrics["web"].ops == 64 + 4 * N
    assert growth <= 16 * 3 * N, growth


def test_txn_client_loop_retained_bytes_flat_in_run_length():
    """A closed loop of two-read, one-write OCC transactions.  Measured:
    +144 B between N=500 and 4N (+1.08 MB, ~720 B per transaction, while
    every CQE stayed in its queue)."""
    sim, cluster, ctx = build(machines=2)
    store = TxnStore(ctx, machine=0, n_keys=64)
    client = TxnClient(ctx, store, machine=1, name="c0")

    def loop(k):
        for j in range(k):
            def body(txn, j=j):
                yield from client.read(txn, j % 64)
                yield from client.read(txn, (j + 1) % 64)
                client.write(txn, j % 64, b"x")
            assert (yield from client.execute(body)).committed

    growth = _growth(lambda k: sim.run(until=sim.process(loop(k))))
    assert client.commits == 64 + 4 * N
    assert growth <= 1024, growth


def test_idle_word_lock_costs_no_waiter_queue():
    """FAAs over many distinct words leave one idle ``Resource`` per word
    in ``Rnic.atomic_word_lock`` for the whole run, keyed by an int and
    named by one shared string; an idle one holds no waiter deque.
    Measured: 181 B per word, the FAA's written line included (256 B
    with a tuple key and a name string per lock, 1,239 B with a 760 B
    deque per lock and every CQE kept).  The bound is that figure plus
    15%."""
    sim, cluster, ctx = build(machines=2)
    rmr = ctx.register(1, 8 * (64 + 4 * N))
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    posted = [0]

    def loop(k):
        for _ in range(k):
            yield from w.faa(qp, rmr, 8 * posted[0], 1)
            posted[0] += 1

    growth = _growth(lambda k: sim.run(until=sim.process(loop(k))))
    assert set(cluster[1].rnic._atomic_locks) == {
        rmr.key_base | 8 * i for i in range(64 + 4 * N)}
    assert growth <= 208 * 3 * N, growth / (3 * N)


def test_scattered_reads_retain_no_translation_keys():
    """One-page READs over distinct pages of a 64 MB region, beyond the
    reach of a 64-entry translation SRAM.  The LRU is full after the
    warm-up, so each new page evicts one entry, and page keys are
    computed per access and kept nowhere else.  Measured: 32 B in all; a
    per-region memo of key lists kept 333 B per page span touched here,
    up to 8,192 spans."""
    params = HardwareParams().derive(translation_cache_entries=64)
    sim, cluster, ctx = build(machines=2, params=params)
    rmr = ctx.register(1, 64 << 20)
    lmr = ctx.register(0, 4096)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    page = rmr.page_size
    touched = [0]

    def loop(k):
        for _ in range(k):
            yield from w.read(qp, src=rmr.slice(page * touched[0], 64),
                              dst=lmr.slice(0, 64))
            touched[0] += 1

    growth = _growth(lambda k: sim.run(until=sim.process(loop(k))))
    xlt = cluster[1].rnic.translation_cache
    assert touched[0] == 64 + 4 * N <= rmr.size // page
    assert len(xlt) == 64 and xlt.misses == touched[0]
    assert growth <= 1024, growth
