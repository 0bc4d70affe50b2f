"""The ``make check`` suite: every checker over the four apps + chaos.

Eight scenarios (catalogued in docs/CHECKING.md, "The make check
suite"), each built fresh with a :class:`~repro.check.Sanitizer`
installed *before* the workload is constructed (so constructors can
register claims), run to completion, drained, and finalized, on each
lane through :mod:`repro.check.differential`.  A difference in
violations or completion digests between the two runs is a ``lanes``
violation.  Exit status 0 iff every scenario reports zero violations on
both lanes and the lanes agree (the CI contract: ``make check``).
"""

from __future__ import annotations

import sys

from repro import build
from repro.check import differential
from repro.check.report import CheckReport, Violation
from repro.check.sanitizer import Sanitizer

__all__ = ["SCENARIOS", "main", "run_scenario"]


# ----------------------------------------------------------------- scenarios
def _drain(sim, procs) -> None:
    """Run each process to its end, then drain fire-and-forget work."""
    for p in procs:
        sim.run(until=p)
    sim.run()


def _loss_windows(sim, cluster, injector, n_clients: int, windows: int,
                  start: float, client_gap: float, window_gap: float):
    """The chaos idiom: 120 us windows of 90% loss on every client port
    (machines 1..n_clients); client i's window k opens at ``start +
    client_gap * i + window_gap * k``."""
    for i in range(n_clients):
        port = cluster[i + 1].port(0)
        for k in range(windows):
            sim.timeout(start + client_gap * i + window_gap * k).add_callback(
                lambda _e, p=port: injector.drop_port(
                    p, prob=0.9, duration_ns=120_000.0))


def _scenario_hashtable() -> Sanitizer:
    from repro.apps.hashtable import DisaggregatedHashTable, FrontEndConfig

    sim, cluster, ctx = build(machines=4)
    san = Sanitizer(sim)          # hashtable writes are last-writer-wins:
    table = DisaggregatedHashTable(          # strict overlap stays off
        ctx, 2, FrontEndConfig(), n_keys=1024, hot_fraction=0.125,
        block_entries=16, seed=7)
    table.run_throughput(measure_ns=800_000, warmup_ns=200_000)
    sim.run()                     # drain fire-and-forget lock releases
    return san


def _scenario_shuffle() -> Sanitizer:
    from repro.apps.shuffle import DistributedShuffle, ShuffleConfig

    sim, cluster, ctx = build(machines=4)
    san = Sanitizer(sim, strict_overlap=True)
    shuffle = DistributedShuffle(
        ctx, 4, ShuffleConfig(strategy="sgl", batch_size=8),
        entries_per_executor=512, seed=1)
    shuffle.run()
    sim.run()
    return san


def _scenario_join() -> Sanitizer:
    from repro.apps.join import DistributedJoin, JoinConfig

    sim, cluster, ctx = build(machines=8)
    san = Sanitizer(sim, strict_overlap=True)
    join = DistributedJoin(ctx, JoinConfig(executors=4, batch=16),
                           tuples_per_relation=2048, seed=3)
    result = join.run()
    if result.matches != join.reference_matches():
        raise AssertionError("join produced wrong matches; sanitizer hooks "
                             "must not perturb the workload")
    sim.run()
    return san


def _scenario_dlog() -> Sanitizer:
    from repro.apps.dlog import DistributedLog, LogConfig, TransactionEngine

    machines = 4
    sim, cluster, ctx = build(machines=machines)
    san = Sanitizer(sim, strict_overlap=True)
    log = DistributedLog(ctx, machine=0, config=LogConfig())
    fe_machines = [m for m in range(machines) if m != 0]
    engines = []
    for i in range(4):
        socket = i % ctx.params.sockets_per_machine
        machine = fe_machines[(i // 2) % len(fe_machines)]
        engines.append(TransactionEngine(log, i, machine, socket))

    def drive(eng):
        for _ in range(8):
            yield from eng.append_batch()

    _drain(sim, [sim.process(drive(e), name=f"check.dlog{e.engine_id}")
                 for e in engines])
    return san


def _scenario_chaos() -> Sanitizer:
    """Ext7-style fault soak: locks + sequencers under loss windows."""
    from repro.core import RemoteSequencer, RemoteSpinLock
    from repro.hw import FaultInjector, HardwareParams
    from repro.sim import make_rng
    from repro.verbs import Worker

    n_clients = 3
    # A small retry budget makes loss windows actually exhaust retries
    # (QP -> ERR -> flush -> reconnect) instead of riding them out.
    sim, cluster, ctx = build(machines=n_clients + 1,
                              params=HardwareParams(retry_cnt=2))
    san = Sanitizer(sim, strict_overlap=True)
    lock_mr = ctx.register(0, 4096)
    counter_mr = ctx.register(0, 4096)
    injector = FaultInjector(sim, rng=make_rng(1234))
    in_cs, max_in_cs = [0], [0]
    seqs, locks = [], []

    def client(i: int):
        m = i + 1
        w = Worker(ctx, m, name=f"chaos.c{m}")
        lock_qp = ctx.create_qp(m, 0)
        seq_qp = ctx.create_qp(m, 0)
        scratch = ctx.register(m, 4096)
        lk = RemoteSpinLock(w, lock_qp, scratch, lock_mr)
        sq = RemoteSequencer(w, seq_qp, counter_mr)
        locks.append(lk)
        seqs.append(sq)
        reserve = (1, 3, 2, 5, 1, 4)
        for k in range(24):
            yield from lk.acquire()
            in_cs[0] += 1
            max_in_cs[0] = max(max_in_cs[0], in_cs[0])
            yield sim.timeout(200)
            in_cs[0] -= 1
            yield from lk.release()
            yield from sq.next(n=reserve[k % len(reserve)])

    # Staggered loss windows on every client port + one blackhole burst.
    _loss_windows(sim, cluster, injector, n_clients, 4,
                  20_000.0, 150_000.0, 450_000.0)
    sim.timeout(1_000_000.0).add_callback(
        lambda _e: injector.blackhole_port(cluster[1].port(0),
                                          duration_ns=200_000.0))
    _drain(sim, [sim.process(client(i), name=f"check.chaos{i}")
                 for i in range(n_clients)])

    if max_in_cs[0] != 1:
        raise AssertionError(f"workload-level mutual exclusion broken: "
                             f"{max_in_cs[0]} clients in the CS")
    if not any(lk.transport_errors for lk in locks) \
            and not any(sq.transport_errors for sq in seqs):
        raise AssertionError("chaos scenario injected no transport errors; "
                             "the fault schedule has gone stale")
    return san


def _scenario_txn() -> Sanitizer:
    """Contended OCC transactions + loss chaos under the txn oracle."""
    from repro.apps.txn import TxnClient, TxnConfig, TxnStore
    from repro.hw import FaultInjector, HardwareParams
    from repro.sim import make_rng, spawn_rngs
    from repro.workloads.zipf import ZipfGenerator

    n_clients = 3
    # Small retry budget: loss windows exhaust retries and force the
    # clients through QP error -> flush -> reconnect mid-transaction.
    sim, cluster, ctx = build(machines=n_clients + 1,
                              params=HardwareParams(retry_cnt=2))
    san = Sanitizer(sim)          # write-back is last-writer-wins per
    store = TxnStore(ctx, machine=0, n_keys=64)   # version: strict off
    injector = FaultInjector(sim, rng=make_rng(1234))
    rngs = spawn_rngs(4321, n_clients)
    clients = [
        TxnClient(ctx, store, machine=1 + i, client_id=i,
                  config=TxnConfig(max_attempts=64), rng=rngs[i],
                  name=f"check.txn{i}")
        for i in range(n_clients)
    ]

    def drive(c, rng):
        zipf = ZipfGenerator(store.n_keys, 0.99, rng)
        for t in range(24):
            keys: set = set()
            while len(keys) < 4:
                keys.add(zipf.one())
            ordered = sorted(keys)

            def body(txn):
                for k in ordered:
                    yield from c.read(txn, k)
                for k in ordered[:2]:
                    c.write(txn, k, f"{c.name}.t{t}".encode())

            yield from c.execute(body)

    _loss_windows(sim, cluster, injector, n_clients, 3,
                  30_000.0, 170_000.0, 500_000.0)

    _drain(sim, [sim.process(drive(c, rng), name=f"check.txn{c.client_id}")
                 for c, rng in zip(clients, rngs)])

    if not any(c.transport_errors for c in clients):
        raise AssertionError("txn chaos scenario injected no transport "
                             "errors; the fault schedule has gone stale")
    if not any(c.aborts for c in clients):
        raise AssertionError("txn scenario saw no conflict aborts; raise "
                             "the contention")
    if not all(c.commits for c in clients):
        raise AssertionError("a txn client never committed")
    return san


def _scenario_fabric() -> Sanitizer:
    """Multi-switch fabric under link faults: kill a spine, route around.

    Cross-rack WRITE/READ traffic on a 9-host leaf-spine fabric while a
    spine uplink dies mid-run and a spine downlink is bandwidth-degraded:
    ECMP pins flows per QP, the dead link eats whole attempts, and each
    retransmission re-salts the hash until traffic rides the surviving
    spine.  The fabric checker audits per-link packet conservation
    through all of it.
    """
    from repro.bench.runner import read_wr, write_wr
    from repro.hw import FaultInjector
    from repro.verbs import QPState, Worker

    n_ops, op_bytes = 32, 2048
    sim, cluster, ctx = build(machines=9, topology="leaf-spine")
    san = Sanitizer(sim, strict_overlap=True)
    fabric = cluster.fabric
    injector = FaultInjector(sim)
    # Clients on rack 0 target hosts on racks 1 and 2 — all cross-rack,
    # so every flow rides a spine.
    pairs = [(1, 4), (2, 5), (3, 8)]
    qps, done = [], []

    def client(src: int, dst: int):
        w = Worker(ctx, src, name=f"fabric.c{src}")
        qp = ctx.create_qp(src, dst)
        qps.append(qp)
        lmr = ctx.register(src, op_bytes)
        rmr = ctx.register(dst, op_bytes * 2)
        ops = 0
        while ops < n_ops:
            if qp.state is QPState.ERR:
                # Retry budget died against the dead spine: reconnect
                # (which re-pins the ECMP route) and carry on.
                yield ctx.reconnect_qp(qp)
                continue
            wr = (write_wr if ops % 2 == 0 else read_wr)(lmr, rmr, op_bytes)
            ev = yield from w.post(qp, wr)
            comp = yield from w.wait(ev)
            if comp.ok:
                ops += 1
        done.append(src)

    # Fault schedule: one spine uplink dies outright mid-run; a spine
    # downlink on the other spine flaps down to half rate.
    sim.timeout(40_000.0).add_callback(
        lambda _e: injector.link_down(fabric.leaf_up[0][0],
                                      duration_ns=250_000.0))
    sim.timeout(60_000.0).add_callback(
        lambda _e: injector.degrade_link(fabric.spine_down[1][1], 0.5,
                                         duration_ns=150_000.0))

    _drain(sim, [sim.process(client(s, d), name=f"check.fabric{s}")
                 for s, d in pairs])

    if len(done) != len(pairs):
        raise AssertionError("a fabric client never finished its ops")
    if fabric.drops == 0:
        raise AssertionError("the dead spine link ate no packets; the "
                             "fault schedule has gone stale")
    if not any(qp.retransmissions for qp in qps):
        raise AssertionError("no retransmissions — the ECMP re-salt path "
                             "was never exercised")
    spines_used = [s for s in range(fabric.spines)
                   if any(fabric.spine_down[s][l].packets_out
                          for l in range(fabric.leaves))]
    if len(spines_used) != fabric.spines:
        raise AssertionError(f"traffic only rode spines {spines_used}; "
                             "expected ECMP to use both")
    if injector.afflicted_count:
        raise AssertionError("link faults did not heal")
    return san


def _scenario_serving() -> Sanitizer:
    """Open-loop serving tier + lease caches under loss chaos.

    Three front doors drive bursty open-loop load (zipf 0.99, 10%
    sticky-routed writes) through the tenancy plane while staggered loss
    windows hammer every client port with a small retry budget — so
    requests shed, error, and force QP drain/reconnect mid-burst.  The
    ``cache`` checker audits the coherence contract the lease caches
    rely on: no fill or hit may serve a value older than the per-key
    acknowledged-write frontier, loss or no loss.
    """
    from repro.apps.hashtable.backend import HashTableBackend
    from repro.apps.hashtable.layout import TableLayout
    from repro.hw import FaultInjector, HardwareParams
    from repro.hw.params import ServiceConfig, TenantSpec
    from repro.load import (
        InvalidationDirectory,
        KvFrontDoor,
        LeaseCache,
        OpenLoopGenerator,
        drain_open_loop,
        preload_table,
        sticky_owner_key,
    )
    from repro.sim import make_rng, spawn_rngs
    from repro.tenancy import ServicePlane
    from repro.workloads import ZipfGenerator, make_arrivals

    n_clients, n_keys, horizon = 3, 512, 600_000.0
    # Small retry budget: loss windows exhaust retries and force the
    # pooled QPs through error -> flush -> reconnect between requests.
    sim, cluster, ctx = build(machines=n_clients + 1,
                              params=HardwareParams(retry_cnt=2))
    san = Sanitizer(sim)          # KV entries are last-writer-wins per
    plane = ServicePlane(ctx, ServiceConfig(       # version: strict off
        tenants=(TenantSpec("web", max_inflight=96, max_queue_depth=64,
                            deadline_ns=40_000.0),),
        scheduler_slots=8))
    layout = TableLayout(n_keys=n_keys, hot_keys=0,
                         sockets=ctx.params.sockets_per_machine)
    backend = HashTableBackend(ctx, 0, layout)
    directory = InvalidationDirectory(sim)
    preload_table(backend, directory)
    injector = FaultInjector(sim, rng=make_rng(1234))
    rngs = spawn_rngs(2468, 2 * n_clients)

    doors, gens = [], []
    for i in range(n_clients):
        cache = LeaseCache(sim, capacity=64, lease_ns=80_000.0,
                           name=f"front{i}")
        door = KvFrontDoor(plane, backend, "web", machine=1 + i,
                           cache=cache, directory=directory)
        doors.append(door)
        times = make_arrivals("bursty", 1.0).arrival_times(
            horizon, rngs[2 * i])
        zipf = ZipfGenerator(n_keys, 0.99, rngs[2 * i + 1])
        keys = zipf.sample(max(1, len(times)))
        writes = rngs[2 * i + 1].random(max(1, len(times))) < 0.1

        def request_fn(j, door=door, keys=keys, writes=writes, owner=i):
            key = int(keys[j])
            if writes[j]:
                return door.put(
                    sticky_owner_key(key, owner, n_clients, n_keys), b"w")
            return door.get(key)

        gens.append(OpenLoopGenerator(sim, request_fn, times,
                                      name=f"check.serve{i}"))

    _loss_windows(sim, cluster, injector, n_clients, 3,
                  30_000.0, 150_000.0, 180_000.0)

    for g in gens:
        g.start()
    drain_open_loop(gens)
    sim.run()                     # drain trailing invalidation callbacks

    if not any(d.reconnects for d in doors) \
            and not any(g.errors for g in gens):
        raise AssertionError("serving chaos injected no transport errors; "
                             "the fault schedule has gone stale")
    if not any(g.delivered for g in gens):
        raise AssertionError("no request was ever served under chaos")
    if san.cache is None or not san.cache.fills_seen \
            or not san.cache.hits_seen:
        raise AssertionError("the cache oracle saw no fills/hits; the "
                             "lease caches were never exercised")
    if not san.cache.invalidations_seen:
        raise AssertionError("no write ack invalidated a cache; the "
                             "coherence path was never exercised")
    return san


SCENARIOS = {
    "hashtable": _scenario_hashtable,
    "shuffle": _scenario_shuffle,
    "join": _scenario_join,
    "dlog": _scenario_dlog,
    "chaos": _scenario_chaos,
    "txn": _scenario_txn,
    "fabric": _scenario_fabric,
    "serving": _scenario_serving,
}


# ----------------------------------------------------------------- driver
def run_scenario(name: str, out=None) -> CheckReport:
    """Run one scenario on both lanes.  Returns the stepped run's report,
    plus a ``lanes`` violation for each way the express run differs (its
    violations merged in when they do; a digest difference names the
    first differing completion).  With ``out``, prints the verdict, the
    lane run's express and stepped WRs, and its digest."""
    scenario = SCENARIOS[name]
    stepped = differential.run(scenario, express=False)
    express = differential.run(scenario, express=True)
    report, other = stepped.value.finalize(), express.value.finalize()
    if (other.counts, other.violations) != (report.counts, report.violations):
        report.merge(other)
        report.add(Violation("lanes", 0.0, name, "differential",
                             "the lanes report different violations"))
    divergence = differential.compare(scenario, stepped, express)
    if divergence is not None:
        report.add(Violation("lanes", 0.0, name, "differential",
                             "the lanes' completion digests differ; "
                             + divergence))
    if out is not None:
        verdict = "ok" if report.ok else f"{report.total} violation(s)"
        print(f"  check:{name:<10} {verdict:<14} lane on: "
              f"{express.express:>5,} express {express.stepped:>5,} "
              f"stepped WRs  digest {express.digests[0][:12]}", file=out)
        if not report.ok:
            print(report.render(), file=out)
    return report


def main(argv=None) -> int:
    names = argv or list(SCENARIOS)
    unknown = set(names) - set(SCENARIOS)
    if unknown:
        print(f"unknown scenario(s): {sorted(unknown)}; "
              f"available: {list(SCENARIOS)}", file=sys.stderr)
        return 2
    report = CheckReport()
    for name in names:
        report.merge(run_scenario(name, sys.stdout))
    if report.ok:
        print(f"check suite clean: {len(names)} scenario(s) "
              "on both lanes, 0 violations")
        return 0
    print(f"CHECK SUITE FAILED: {report.total} violation(s) "
          f"({dict(report.counts)})")
    return 1
