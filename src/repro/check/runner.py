"""The ``make check`` suite: every checker over the bench targets and
the fault soaks, on both verbs lanes.

A unit is a hand-built scenario (:data:`SCENARIOS`, catalogued in
docs/CHECKING.md, "The make check suite") or a bench target, run quick
through :func:`~repro.bench.parallel.run_campaign`.  :func:`checked`
runs one under :func:`installed`, which puts a full
:class:`~repro.check.Sanitizer` on every simulator as it is built (so
constructors can register claims).  When the unit returns, each
simulator runs :data:`DRAIN_NS` more, work still pending then is a
``liveness`` violation, and the simulator is finalized.  Overlap is
strict except for the last-writer-wins units in :data:`CLAIMS_ONLY`.

:func:`run_scenario` runs a unit on each lane through
:mod:`repro.check.differential`; a difference in violations, completion
digests or rendered text is a ``lanes`` violation.  Exit status 0 iff
every unit reports zero violations on both lanes and the lanes agree
(the CI contract: ``make check``).
"""

from __future__ import annotations

import contextlib
import functools
import sys
from typing import Optional
from unittest import mock

from repro import build
from repro.bench import TARGETS
from repro.bench.parallel import run_campaign
from repro.check import differential
from repro.check.report import CheckReport, Violation
from repro.check.sanitizer import Sanitizer
from repro.sim.engine import Simulator

__all__ = ["CLAIMS_ONLY", "DRAIN_NS", "HORIZON_NS", "SCENARIOS",
           "SMOKE_TARGETS", "checked", "installed", "main", "run_scenario"]

#: Simulated time every simulator runs after its unit returns; work
#: still pending then is a ``liveness`` violation.
DRAIN_NS = 10_000_000.0

#: Where a scenario stops running its workload: about 5x the longest
#: scenario's span (chaos, 1.79 ms), so a lost unlock cannot spin forever.
HORIZON_NS = 10_000_000.0

#: Units whose concurrent WRITEs to one range are last-writer-wins by
#: design: the overlap checker enforces claims only.  Every other unit
#: runs with strict WRITE-WRITE race detection.
CLAIMS_ONLY = frozenset({
    "hashtable",          # front-ends overwrite the same hot entries
    "txn",                # OCC write-back: each version's last writer wins
    "serving",            # KV puts to one entry: the last writer wins
    "fig12",              # the hashtable's front-ends share hot entries
    "fig13",              # the hashtable's front-ends share hot entries
    "summary",            # runs fig12's hashtable
    "scorecard",          # grades fig12's and fig13's hashtable points
    "ext1",               # hashtable READ/WRITE mix over shared entries
    "ext2",               # port scaling: every QP WRITEs one remote range
    "ext4",               # one-sided hashtable puts to shared entries
    "ext9_fabric_scale",  # incast: every sender WRITEs one sink range
})

#: The targets a bare ``python -m repro.check`` runs beside the
#: scenarios (why each is here: the Makefile's ``check`` comment).
SMOKE_TARGETS = (
    "ext7_fault_recovery", "fig5", "fig1", "breakdown", "fig10", "ext2",
    "ext8_txn", "ext1", "fig15", "fig16", "ext6_multitenant", "fig4",
    "fig18", "table3", "ext10_open_loop", "ext9_fabric_scale", "fig19",
)


@contextlib.contextmanager
def installed(strict_overlap: bool):
    """Install a full :class:`Sanitizer` on every :class:`Simulator`
    built in the block, as it is built.  Yields the list of them."""
    sims: list = []
    init = Simulator.__init__

    def __init__(sim):
        init(sim)
        Sanitizer(sim, strict_overlap=strict_overlap)
        sims.append(sim)

    with mock.patch.object(Simulator, "__init__", __init__):
        yield sims


# ----------------------------------------------------------------- scenarios
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


def _scenario_hashtable() -> None:
    from repro.apps.hashtable import DisaggregatedHashTable, FrontEndConfig

    sim, cluster, ctx = build(machines=4)
    table = DisaggregatedHashTable(
        ctx, 2, FrontEndConfig(), n_keys=1024, hot_fraction=0.125,
        block_entries=16, seed=7)
    table.run_throughput(measure_ns=800_000, warmup_ns=200_000)


def _scenario_chaos() -> None:
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
    for i in range(n_clients):
        sim.process(client(i), name=f"check.chaos{i}")
    sim.run(until=HORIZON_NS)

    if max_in_cs[0] != 1:
        raise AssertionError(f"workload-level mutual exclusion broken: "
                             f"{max_in_cs[0]} clients in the CS")
    if not any(lk.transport_errors for lk in locks) \
            and not any(sq.transport_errors for sq in seqs):
        raise AssertionError("chaos scenario injected no transport errors; "
                             "the fault schedule has gone stale")


def _scenario_txn() -> None:
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
    store = TxnStore(ctx, machine=0, n_keys=16)
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

    for c, rng in zip(clients, rngs):
        sim.process(drive(c, rng), name=f"check.txn{c.client_id}")
    sim.run(until=HORIZON_NS)

    if not any(c.transport_errors for c in clients):
        raise AssertionError("txn chaos scenario injected no transport "
                             "errors; the fault schedule has gone stale")
    if not any(c.aborts for c in clients):
        raise AssertionError("txn scenario saw no conflict aborts; raise "
                             "the contention")
    if not any(c.validate_conflicts for c in clients):
        raise AssertionError("txn scenario failed no OCC validation; raise "
                             "the read-write contention")
    if not all(c.commits for c in clients):
        raise AssertionError("a txn client never committed")


def _scenario_fabric() -> None:
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
    from repro.verbs import Worker

    n_ops, op_bytes = 32, 2048
    sim, cluster, ctx = build(machines=9, topology="leaf-spine")
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
            wr = (write_wr if ops % 2 == 0 else read_wr)(lmr, rmr, op_bytes)
            ev = yield from w.post(qp, wr)
            comp = yield from w.wait(ev)
            if comp.ok:
                ops += 1
            else:
                # Retry budget died against the dead spine: recover (same
                # ECMP route: the hash ignores ports; only the
                # retransmissions' re-salt picks the other spine) and
                # carry on.
                yield from ctx.recover_qp(qp)
        done.append(src)

    # Fault schedule: one spine uplink dies outright mid-run; a spine
    # downlink on the other spine flaps down to half rate.
    sim.timeout(40_000.0).add_callback(
        lambda _e: injector.link_down(fabric.leaf_up[0][0],
                                      duration_ns=250_000.0))
    sim.timeout(60_000.0).add_callback(
        lambda _e: injector.degrade_link(fabric.spine_down[1][1], 0.5,
                                         duration_ns=150_000.0))

    for s, d in pairs:
        sim.process(client(s, d), name=f"check.fabric{s}")
    sim.run(until=HORIZON_NS)

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


def _scenario_serving() -> None:
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
    plane = ServicePlane(ctx, ServiceConfig(
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
    sim.run(until=HORIZON_NS)

    if not any(d.reconnects for d in doors) \
            and not any(g.errors for g in gens):
        raise AssertionError("serving chaos injected no transport errors; "
                             "the fault schedule has gone stale")
    if not any(g.delivered for g in gens):
        raise AssertionError("no request was ever served under chaos")
    oracle = sim.check.cache
    if not oracle.fills_seen or not oracle.hits_seen:
        raise AssertionError("the cache oracle saw no fills/hits; the "
                             "lease caches were never exercised")
    if not oracle.invalidations_seen:
        raise AssertionError("no write ack invalidated a cache; the "
                             "coherence path was never exercised")


SCENARIOS = {
    "hashtable": _scenario_hashtable,
    "chaos": _scenario_chaos,
    "txn": _scenario_txn,
    "fabric": _scenario_fabric,
    "serving": _scenario_serving,
}


# ----------------------------------------------------------------- driver
def _render(target: str) -> str:
    """Target ``target``'s quick tables, as the CLI prints them."""
    return "\n".join(f.to_text() for f in run_campaign(target).figures)


def checked(name: str) -> tuple[Optional[str], CheckReport]:
    """Run unit ``name`` under :func:`installed`, then drain and finalize
    every simulator it built.  Returns its rendered text (``None`` for a
    scenario) and the simulators' merged report."""
    unit = SCENARIOS.get(name) or functools.partial(_render, name)
    with installed(strict_overlap=name not in CLAIMS_ONLY) as sims:
        text = unit()
    report = CheckReport()
    for i, sim in enumerate(sims):
        san = sim.check
        sim.run(until=sim.now + DRAIN_NS)
        if sim.peek() != float("inf"):
            san.record("liveness", f"{name} simulator {i}", "drain",
                       f"work still pending {DRAIN_NS / 1e6:g} ms after "
                       f"the unit returned (next wake at {sim.peek():.1f} "
                       "ns)")
        report.merge(san.finalize())
    return text, report


def run_scenario(name: str, out=None) -> CheckReport:
    """Run one unit (a scenario or a bench target) on both lanes.
    Returns the stepped run's report, plus a ``lanes`` violation for
    each way the express run differs (its violations merged in when they
    do; a digest difference names the first differing completion, a text
    difference the first differing line).  With ``out``, prints the
    verdict, the lane run's express and stepped WRs, and its digest."""
    unit = functools.partial(checked, name)
    stepped = differential.run(unit, express=False)
    express = differential.run(unit, express=True)
    (text, report), (other_text, other) = stepped.value, express.value
    if (other.counts, other.violations) != (report.counts, report.violations):
        report.merge(other)
        report.add(Violation("lanes", 0.0, name, "differential",
                             "the lanes report different violations"))
    divergence = differential.compare(unit, stepped, express)
    if divergence is not None:
        report.add(Violation("lanes", 0.0, name, "differential",
                             "the lanes' completion digests differ; "
                             + divergence))
    if text != other_text:
        lines = text.splitlines(), other_text.splitlines()
        at = differential._first_difference(*lines)
        row = [ls[at] if at < len(ls) else "(end)" for ls in lines]
        report.add(Violation("lanes", 0.0, name, "differential",
                             f"the lanes render different text; line "
                             f"{at}:\n  - {row[0]}\n  + {row[1]}"))
    if out is not None:
        verdict = "ok" if report.ok else f"{report.total} violation(s)"
        print(f"  check:{name:<19} {verdict:<14} lane on: "
              f"{express.express:>6,} express {express.stepped:>5,} "
              f"stepped WRs  digest {(express.digests or ['-'])[0][:12]}",
              file=out)
        if not report.ok:
            print(report.render(), file=out)
    return report


def main(argv=None) -> int:
    """``python -m repro.check [name ...]``: no name runs the scenarios
    and :data:`SMOKE_TARGETS`; ``all`` runs the scenarios and every
    target.  Units run in order and the suite stops at the first that
    fails, so a defect the bounded scenarios catch never reaches a
    target that would spin on it."""
    names = list(argv or [*SCENARIOS, *SMOKE_TARGETS])
    if "all" in names:
        names = [*SCENARIOS, *TARGETS]
    unknown = set(names) - set(SCENARIOS) - set(TARGETS)
    if unknown:
        print(f"unknown unit(s): {sorted(unknown)}; available: "
              f"{[*SCENARIOS, *TARGETS, 'all']}", file=sys.stderr)
        return 2
    for done, name in enumerate(names, 1):
        report = run_scenario(name, sys.stdout)
        if not report.ok:
            print(f"CHECK SUITE FAILED at {name}: {report.total} "
                  f"violation(s) ({dict(report.counts)}); "
                  f"{len(names) - done} unit(s) not run")
            return 1
    print(f"check suite clean: {len(names)} unit(s) "
          "on both lanes, 0 violations")
    return 0
