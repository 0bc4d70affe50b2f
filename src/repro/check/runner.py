"""The ``make check`` suite: every checker over the four apps + chaos.

Eight scenarios, each built fresh with a :class:`~repro.check.Sanitizer`
installed *before* the workload is constructed (so constructors can
register claims), run to completion, drained, and finalized, on each
lane (``REPRO_EXPRESS=0``, then ``=1``).  A difference in violations or
completion digests between the two runs is a ``lanes`` violation.

* ``hashtable`` — the disaggregated hashtable's Zipf write storm
  (remote spinlocks on hot blocks, consolidated flushes).  Strict
  overlap stays off: the cold path is deliberately last-writer-wins.
* ``shuffle`` — the distributed shuffle (disjoint inbound partitions:
  strict overlap on).
* ``join`` — the distributed hash join, strict overlap on.
* ``dlog`` — the distributed log: FAA space reservation feeds the
  sequencer oracle; reserved extents are disjoint, strict overlap on.
* ``chaos`` — ext7-style fault injection: remote spinlock and remote
  sequencer clients hammered by seeded i.i.d. loss windows and a
  blackhole, exercising QP error/flush/reconnect under every checker.
* ``txn`` — the one-sided OCC dataplane at high contention (Zipf
  theta=0.99) under seeded loss windows with a small retry budget: the
  serializability oracle judges every commit while transport recovery
  replays interrupted lock CASes.  Strict overlap stays off — commit
  write-back intentionally overwrites the previous version's value.
* ``fabric`` — cross-rack traffic on a leaf-spine fabric while a spine
  link dies and another degrades: ECMP re-salting + retransmission
  route around the faults under the per-link conservation checker.
* ``serving`` — the open-loop serving tier (bursty arrivals, lease
  front caches, sticky-routed writes) under seeded loss windows with a
  small retry budget: the ``cache`` coherence oracle judges every fill,
  hit, and invalidation while front doors shed, error, and reconnect.
  Strict overlap stays off — KV entries are last-writer-wins.

Exit status 0 iff every scenario reports zero violations on both lanes
and the lanes agree (the CI contract: ``make check``).
"""

from __future__ import annotations

import itertools
import os
import sys
from unittest import mock

from repro import build
from repro.check.report import CheckReport, Violation
from repro.check.sanitizer import Sanitizer
from repro.verbs import mr as mr_module
from repro.verbs import qp as qp_module

__all__ = ["SCENARIOS", "main", "run_all", "run_lane", "run_scenario"]


# ----------------------------------------------------------------- scenarios
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

    procs = [sim.process(drive(e), name=f"check.dlog{e.engine_id}")
             for e in engines]
    for p in procs:
        sim.run(until=p)
    sim.run()
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
    def schedule_faults():
        for i in range(n_clients):
            port = cluster[i + 1].port(0)
            for k in range(4):
                at = 20_000.0 + 150_000.0 * i + 450_000.0 * k
                sim.timeout(at).add_callback(
                    lambda _e, p=port: injector.drop_port(
                        p, prob=0.9, duration_ns=120_000.0))
        sim.timeout(1_000_000.0).add_callback(
            lambda _e: injector.blackhole_port(cluster[1].port(0),
                                              duration_ns=200_000.0))

    schedule_faults()
    procs = [sim.process(client(i), name=f"check.chaos{i}")
             for i in range(n_clients)]
    for p in procs:
        sim.run(until=p)
    sim.run()

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

    # Staggered loss windows on every client port (the chaos idiom).
    for i in range(n_clients):
        port = cluster[i + 1].port(0)
        for k in range(3):
            at = 30_000.0 + 170_000.0 * i + 500_000.0 * k
            sim.timeout(at).add_callback(
                lambda _e, p=port: injector.drop_port(
                    p, prob=0.9, duration_ns=120_000.0))

    procs = [sim.process(drive(c, rng), name=f"check.txn{c.client_id}")
             for c, rng in zip(clients, rngs)]
    for p in procs:
        sim.run(until=p)
    sim.run()

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

    procs = [sim.process(client(s, d), name=f"check.fabric{s}")
             for s, d in pairs]
    for p in procs:
        sim.run(until=p)
    sim.run()

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

    # Staggered loss windows on every client port (the chaos idiom).
    for i in range(n_clients):
        port = cluster[i + 1].port(0)
        for k in range(3):
            at = 30_000.0 + 150_000.0 * i + 180_000.0 * k
            sim.timeout(at).add_callback(
                lambda _e, p=port: injector.drop_port(
                    p, prob=0.9, duration_ns=120_000.0))

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
def run_lane(scenario, express: bool) -> dict:
    """Run ``scenario`` (it returns the Sanitizer of the workload it ran)
    on one lane: its finalized ``report``, completion ``digest``, and the
    WRs that ``stepped`` or not (``express``, flush posts included)."""
    tally = qp_module.tally
    # QP and MR ids seed ECMP hashes and name violations: number each
    # run's from 1, so both lanes (and a scenario run alone) see the same.
    qp_module._qp_ids = itertools.count(1)
    mr_module._mr_ids = itertools.count(1)
    wrs, stepped = tally.completions, sum(tally.stepped.values())
    with mock.patch.dict(os.environ, REPRO_EXPRESS="1" if express else "0"):
        san = scenario()
    stepped = sum(tally.stepped.values()) - stepped
    return {"report": san.finalize(), "digest": san.completions.digest,
            "stepped": stepped, "express": tally.completions - wrs - stepped}


def run_scenario(name: str, out=None) -> CheckReport:
    """Run one scenario on both lanes.  Returns the stepped run's report,
    plus a ``lanes`` violation for each way the express run differs (its
    violations merged in when they do).  With ``out``, prints the
    verdict, the lane run's express and stepped WRs, and its digest."""
    stepped = run_lane(SCENARIOS[name], express=False)
    express = run_lane(SCENARIOS[name], express=True)
    report, other = stepped["report"], express["report"]
    if (other.counts, other.violations) != (report.counts, report.violations):
        report.merge(other)
        report.add(Violation("lanes", 0.0, name, "differential",
                             "the lanes report different violations"))
    if express["digest"] != stepped["digest"]:
        report.add(Violation("lanes", 0.0, name, "differential",
                             "the lanes' completion digests differ"))
    if out is not None:
        verdict = "ok" if report.ok else f"{report.total} violation(s)"
        print(f"  check:{name:<10} {verdict:<14} lane on: "
              f"{express['express']:>5,} express {express['stepped']:>5,} "
              f"stepped WRs  digest {express['digest'][:12]}", file=out)
        if not report.ok:
            print(report.render(), file=out)
    return report


def run_all(names=None, out=sys.stdout) -> CheckReport:
    """Run the suite; prints one line per scenario, returns merged report."""
    merged = CheckReport()
    for name in (names or SCENARIOS):
        merged.merge(run_scenario(name, out))
    merged.finalized = True
    return merged


def main(argv=None) -> int:
    names = argv if argv else None
    unknown = set(names or ()) - set(SCENARIOS)
    if unknown:
        print(f"unknown scenario(s): {sorted(unknown)}; "
              f"available: {list(SCENARIOS)}", file=sys.stderr)
        return 2
    report = run_all(names)
    if report.ok:
        print(f"check suite clean: {len(names or SCENARIOS)} scenario(s) "
              "on both lanes, 0 violations")
        return 0
    print(f"CHECK SUITE FAILED: {report.total} violation(s) "
          f"({dict(report.counts)})")
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))
