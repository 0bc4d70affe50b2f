"""The four end-to-end workloads, built only from ``repro``'s public API.

Each workload is a :class:`Rig` subclass; ``build_workload(name, seed,
scale)`` constructs one.  Construction is set-up: it builds the simulated
cluster and draws every input from ``seed`` (the program under test
receives only the generated inputs).  ``Rig.run()`` is the measured part:
it drives the simulation to the end.  ``Rig.result()`` then gathers the
simulated outputs, checks their invariants and digests them.

``scale`` multiplies each workload's size (ops per client, or the
open-loop horizon); 1.0 is the size described in README.md.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter

import numpy as np

from repro import build
from repro.apps.hashtable.backend import HashTableBackend
from repro.apps.hashtable.layout import TableLayout
from repro.apps.txn import TxnClient, TxnConfig, TxnStore, is_locked
from repro.hw import FaultInjector, ServiceConfig, TenantSpec
from repro.load import (InvalidationDirectory, KvFrontDoor, LeaseCache,
                        OpenLoopGenerator, drain_open_loop, preload_table,
                        sticky_owner_key)
from repro.sim import AllOf, make_rng, percentiles
from repro.tenancy import ServicePlane
from repro.verbs import CompletionStatus, Opcode, QPState, Sge, Worker, WorkRequest
from repro.workloads import MarkovOnOffProcess, ZipfGenerator

__all__ = ["WORKLOADS", "Rig", "build_workload"]

MIB = 1 << 20

#: Seed of the fixed bursty arrival trace of serve_bursty.
TRACE_SEED = 101_000


def _rngs(seed: int, workload: str, n: int) -> list[np.random.Generator]:
    """``n`` independent streams for one workload under the bench seed."""
    salt = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4],
                          "little")
    root = np.random.SeedSequence([seed, salt])
    return [make_rng(child) for child in root.spawn(n)]


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


class Rig:
    """One built workload: a simulator with its inputs already drawn.

    Subclasses fill ``latencies`` (simulated ns of each delivered
    top-level op), ``outcomes`` (a Counter of per-op outcomes) and
    ``violations`` during :meth:`run`, and provide :meth:`_counters` and
    :meth:`_check`.
    """

    name = ""

    def __init__(self, machines: int):
        self.sim, self.cluster, self.ctx = build(machines=machines)
        self.server = self.cluster[0]
        self.latencies: list[float] = []
        self.outcomes: Counter = Counter()
        self.violations: list[str] = []
        self.attempted = 0
        self.gen_s = 0.0

    # -- measured part ----------------------------------------------------
    def run(self) -> None:
        raise NotImplementedError

    # -- outputs ----------------------------------------------------------
    def _counters(self) -> dict:
        """Post-run counters specific to the workload (layer metrics)."""
        return {}

    def _check(self) -> None:
        """Workload invariants; append a message to ``violations``."""

    def _violate(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)

    def counters(self) -> dict:
        """Post-run counters read from public attributes; zero host cost."""
        sim = self.sim
        now = sim.now
        ports = self.server.ports
        xlt = self.server.rnic.translation_cache
        lookups = xlt.hits + xlt.misses
        qps = self.ctx.qps

        def util(unit: str) -> float:
            busy = sum(getattr(p, unit).busy_time() for p in ports)
            return busy / (len(ports) * now) if now else 0.0

        out = {
            "hw.sram.hit_frac": xlt.hits / lookups if lookups else 0.0,
            "hw.rnic.tx_util": util("tx_unit"),
            "hw.rnic.rx_util": util("rx_unit"),
            "hw.rnic.atomic_util": util("atomic_unit"),
            "hw.packets_dropped": sum(p.packets_dropped
                                      for m in self.cluster for p in m.ports),
            "verbs.retransmissions": sum(q.retransmissions for q in qps),
            "verbs.reconnects": sum(q.reconnects for q in qps),
            "verbs.fatal_errors": sum(q.fatal_errors for q in qps),
            "tenancy.shed_frac": 0.0,
            "load.cache_hit_frac": 0.0,
            "apps.txn.abort_frac": 0.0,
        }
        out.update(self._counters())
        return out

    def result(self) -> dict:
        """Simulated outputs, invariants and their digest."""
        posted = sum(q.posted for q in self.ctx.qps)
        completed = sum(q.completed for q in self.ctx.qps)
        self._violate(posted == completed,
                      f"{completed} WRs completed of {posted} posted")
        self._violate(sum(self.outcomes.values()) == self.attempted,
                      f"{sum(self.outcomes.values())} outcomes for "
                      f"{self.attempted} attempted ops")
        self._check()
        lats = sorted(self.latencies)
        counters = self.counters()
        outputs = {
            "latencies_ns": lats,
            "outcomes": dict(sorted(self.outcomes.items())),
            "sim_now_ns": self.sim.now,
            "counters": counters,
        }
        blob = json.dumps(outputs, sort_keys=True, default=repr)
        p50, p99, p999 = percentiles(lats, [50, 99, 99.9])
        now = self.sim.now
        return {
            "digest": hashlib.sha256(blob.encode()).hexdigest(),
            "violations": list(self.violations),
            "attempted": self.attempted,
            "delivered": len(lats),
            "outcomes": outputs["outcomes"],
            "events": self.sim.events_processed,
            "wrs": completed,
            "sim_now_ns": now,
            "sim_goodput_mops": len(lats) / now * 1e3 if now else 0.0,
            "sim_p50_us": p50 / 1e3,
            "sim_p99_us": p99 / 1e3,
            "sim_p999_us": p999 / 1e3,
            "samples": len(lats),
            "counters": counters,
            "workloads.gen_s": self.gen_s,
        }


# --------------------------------------------------------------- serve_bursty
class ServeBursty(Rig):
    """The ext10 serving rig at one fixed point: bursty open loop through
    three lease-cached front doors and the tenancy plane."""

    name = "serve_bursty"
    DOORS = 3
    N_KEYS = 4096
    THETA = 0.99
    WRITE_FRAC = 0.05
    MEAN_MOPS = 3.5
    HORIZON_NS = 30e6

    def __init__(self, seed: int, scale: float):
        super().__init__(machines=self.DOORS + 1)
        sim = self.sim
        self.plane = ServicePlane(self.ctx, ServiceConfig(
            tenants=(TenantSpec("web", max_inflight=192, max_queue_depth=128,
                                deadline_ns=25_000.0),),
            scheduler_slots=8))
        layout = TableLayout(n_keys=self.N_KEYS, hot_keys=0,
                             sockets=self.ctx.params.sockets_per_machine)
        self.backend = HashTableBackend(self.ctx, 0, layout)
        directory = InvalidationDirectory(sim)
        preload_table(self.backend, directory)

        t0 = time.perf_counter()
        rngs = _rngs(seed, self.name, self.DOORS)
        horizon = self.HORIZON_NS * scale
        streams = []
        for i in range(self.DOORS):
            # The bursty timeline is a fixed trace per door; the seed draws
            # the keys and the write mix.
            arrivals = MarkovOnOffProcess(self.MEAN_MOPS / self.DOORS)
            times = arrivals.arrival_times(horizon, make_rng(TRACE_SEED + i))
            n = max(1, len(times))
            keys = ZipfGenerator(self.N_KEYS, self.THETA, rngs[i]).sample(n)
            writes = rngs[i].random(n) < self.WRITE_FRAC
            # Writes are sticky-routed: door i owns keys == i (mod DOORS).
            keys = [sticky_owner_key(int(k), i, self.DOORS, self.N_KEYS)
                    if w else int(k) for k, w in zip(keys, writes)]
            streams.append((times, keys, writes.tolist()))
        self.gen_s = time.perf_counter() - t0

        self.gens = []
        #: Times each request got an outcome (must be exactly once).
        self.seen = []
        self.max_lag_ns = 0.0
        for i, (times, keys, writes) in enumerate(streams):
            cache = LeaseCache(sim, 128, 50_000.0, name=f"front{i}")
            door = KvFrontDoor(self.plane, self.backend, "web", machine=1 + i,
                               cache=cache, directory=directory)
            seen = [0] * len(times)
            self.seen.append(seen)
            self.attempted += len(times)
            self.gens.append(OpenLoopGenerator(
                sim, self._request_fn(door, times.tolist(), keys, writes,
                                      seen),
                times, name=f"serve.m{1 + i}"))

    def _request_fn(self, door, times, keys, writes, seen):
        sim = self.sim
        lats = self.latencies
        outcomes = self.outcomes

        def request(j):
            due = times[j]
            lag = abs(sim.now - due)
            if lag > self.max_lag_ns:
                self.max_lag_ns = lag
            key = keys[j]
            if writes[j]:
                res = yield from door.put(key, b"w")
            else:
                res = yield from door.get(key)
                if res.served and not _value_ok(key, res):
                    self.violations.append(
                        f"GET {key} returned version {res.version} "
                        f"value {res.value[:8]!r}")
            seen[j] += 1
            outcomes[res.outcome] += 1
            if res.served:
                # Open loop: timed from when the request was due.
                lats.append(sim.now - due)
            return res

        return request

    def run(self) -> None:
        for g in self.gens:
            g.start()
        drain_open_loop(self.gens)

    def _counters(self) -> dict:
        slo = self.plane.metrics["web"]
        return {
            "tenancy.shed_frac": slo.rejected / self.attempted,
            "load.cache_hit_frac": slo.cache_hit_rate,
        }

    def _check(self) -> None:
        for i, seen in enumerate(self.seen):
            bad = sum(1 for s in seen if s != 1)
            self._violate(bad == 0,
                          f"door {i}: {bad} requests without exactly one "
                          "outcome")
        # Float dust only: the injector sleeps exactly to each arrival.
        self._violate(self.max_lag_ns < 1e-6,
                      f"generator lag {self.max_lag_ns} ns")
        slo = self.plane.metrics["web"]
        self._violate(slo.rejected == self.outcomes["shed"],
                      f"plane shed {slo.rejected}, doors saw "
                      f"{self.outcomes['shed']}")


def _value_ok(key: int, res) -> bool:
    """A served GET returns the preloaded entry or a later write."""
    if res.version == 1:
        return res.value.rstrip(b"\x00") == b"v%07d" % (key % 10**7)
    return res.version > 1 and res.value.rstrip(b"\x00") == b"w"


# ------------------------------------------------------------------ verbs_mix
class VerbsMix(Rig):
    """Closed-loop raw verbs: 8 threads, one RC QP each, a mixed op stream
    over a 64 MB region that far exceeds translation-SRAM coverage."""

    name = "verbs_mix"
    THREADS = 8
    OPS = 16_384
    REGION = 64 * MIB
    # 64 B READ, 256 B WRITE, 4 x 32 B doorbell WRITE, 8 B FAA
    MIX = (0.6, 0.2, 0.1, 0.1)

    def __init__(self, seed: int, scale: float):
        super().__init__(machines=3)
        ctx = self.ctx
        self.region = ctx.register(0, self.REGION, socket=0)
        n = _scaled(self.OPS, scale)
        t0 = time.perf_counter()
        rngs = _rngs(seed, self.name, self.THREADS)
        plans = []
        for rng in rngs:
            kinds = rng.choice(4, size=n, p=self.MIX)
            # Each op gets four targets (256 B block + 32 B sub-slot); only
            # a doorbell batch uses more than the first.
            slots = rng.integers(0, self.REGION // 256, size=(n, 4))
            sub = rng.integers(0, 8, size=(n, 4))
            plans.append((kinds.tolist(), slots.tolist(), sub.tolist()))
        self.gen_s = time.perf_counter() - t0
        self.attempted = sum(
            sum(4 if k == 2 else 1 for k in kinds) for kinds, _, _ in plans)
        #: FAA target offset -> old values returned (add is always 1).
        self.faa: dict[int, list[int]] = {}
        self.procs = []
        for t, plan in enumerate(plans):
            machine, socket = 1 + t % 2, (t // 2) % 2
            qp = ctx.create_qp(
                machine, 0,
                local_port=self.cluster[machine].port_for_socket(socket).index,
                remote_port=socket, sq_socket=socket)
            lmr = ctx.register(machine, 4096, socket=socket)
            worker = Worker(ctx, machine, socket, name=f"mix{t}")
            self.procs.append((worker, qp, lmr, plan))

    def _client(self, worker, qp, lmr, plan):
        sim = self.sim
        region = self.region
        lats = self.latencies
        outcomes = self.outcomes
        faa = self.faa
        ok = CompletionStatus.SUCCESS
        src64, src256 = lmr[0:64], lmr[0:256]
        for kind, slots, sub in zip(*plan):
            t0 = sim.now
            if kind == 2:
                wrs = [WorkRequest(Opcode.WRITE, sgl=[Sge(lmr, 32 * b, 32)],
                                   remote_mr=region,
                                   remote_offset=slots[b] * 256 + sub[b] * 32,
                                   move_data=False) for b in range(4)]
                events = yield from worker.post_batch(qp, wrs)
                comps = []
                for ev in events:
                    comps.append((yield from worker.wait(ev)))
            else:
                off = slots[0] * 256
                if kind == 0:
                    off += (sub[0] >> 1) * 64
                    comp = yield from worker.read(
                        qp, src=region[off:off + 64], dst=src64,
                        move_data=False)
                elif kind == 1:
                    comp = yield from worker.write(
                        qp, src=src256, dst=region[off:off + 256],
                        move_data=False)
                else:
                    off += sub[0] * 32
                    comp = yield from worker.faa(qp, region, off, 1)
                    if comp.status is ok:
                        faa.setdefault(off, []).append(comp.value)
                comps = (comp,)
            for comp in comps:
                if comp.status is ok:
                    outcomes["ok"] += 1
                    lats.append(comp.timestamp_ns - t0)
                else:
                    outcomes[comp.status.value] += 1

    def run(self) -> None:
        sim = self.sim
        procs = [sim.process(self._client(*p), name=f"mix{i}")
                 for i, p in enumerate(self.procs)]
        sim.run(until=AllOf(sim, procs))

    def _check(self) -> None:
        self._violate(self.outcomes["ok"] == self.attempted,
                      f"{self.attempted - self.outcomes['ok']} WRs failed "
                      "on a fault-free fabric")
        # Every FAA adds 1, so a word's returned old values are 0..k-1
        # and the word ends at k.
        for off, olds in self.faa.items():
            k = len(olds)
            if sorted(olds) != list(range(k)) or \
                    self.region.read_u64(off) != k:
                self.violations.append(
                    f"FAA word {off}: olds {sorted(olds)[:4]}..., final "
                    f"{self.region.read_u64(off)}")
                break


# -------------------------------------------------------------- txn_contended
class TxnContended(Rig):
    """Closed-loop one-sided OCC transactions under zipf contention."""

    name = "txn_contended"
    CLIENTS = 6
    TXNS = 1500
    N_KEYS = 1024
    THETA = 0.9
    READS = 4

    def __init__(self, seed: int, scale: float):
        super().__init__(machines=4)
        self.store = TxnStore(self.ctx, machine=0, n_keys=self.N_KEYS)
        n = _scaled(self.TXNS, scale)
        t0 = time.perf_counter()
        rngs = _rngs(seed, self.name, 2 * self.CLIENTS)
        plans = []
        for i in range(self.CLIENTS):
            rng = rngs[2 * i]
            zipf = ZipfGenerator(self.N_KEYS, self.THETA, rng)
            txns = []
            for _ in range(n):
                keys: set[int] = set()
                while len(keys) < self.READS:
                    keys.add(zipf.one())
                keys = sorted(keys)
                txns.append((keys, keys[int(rng.integers(self.READS))]))
            plans.append(txns)
        self.gen_s = time.perf_counter() - t0
        self.attempted = n * self.CLIENTS
        self.clients = [
            TxnClient(self.ctx, self.store, machine=1 + i % 3, socket=i // 3,
                      client_id=i, name=f"c{i}", rng=rngs[2 * i + 1],
                      config=TxnConfig(max_attempts=64))
            for i in range(self.CLIENTS)]
        self.plans = plans

    def _driver(self, client, plan):
        lats = self.latencies
        outcomes = self.outcomes
        for j, (keys, wkey) in enumerate(plan):
            value = f"{client.name}.t{j}".encode()

            def body(txn, keys=keys, wkey=wkey, value=value):
                for k in keys:
                    yield from client.read(txn, k)
                client.write(txn, wkey, value)

            res = yield from client.execute(body)
            if res.committed:
                outcomes["commit"] += 1
                lats.append(res.latency_ns)
            else:
                outcomes["gave_up"] += 1

    def run(self) -> None:
        sim = self.sim
        procs = [sim.process(self._driver(c, p), name=f"drv.{c.name}")
                 for c, p in zip(self.clients, self.plans)]
        sim.run(until=AllOf(sim, procs))

    def _counters(self) -> dict:
        begun = sum(c.begun for c in self.clients)
        aborts = sum(c.aborts for c in self.clients)
        return {"apps.txn.abort_frac": aborts / begun if begun else 0.0}

    def _check(self) -> None:
        commits = sum(c.commits for c in self.clients)
        gave_up = sum(c.gave_up for c in self.clients)
        self._violate(commits + gave_up == self.attempted,
                      f"{commits} commits + {gave_up} gave up != "
                      f"{self.attempted} issued")
        self._violate(commits == self.outcomes["commit"],
                      f"clients count {commits} commits, driver "
                      f"{self.outcomes['commit']}")
        words = [self.store.peek_word(k) for k in range(self.N_KEYS)]
        locked = sum(1 for w in words if is_locked(w))
        self._violate(locked == 0, f"{locked} LOCK bits left in the store")
        # Each commit writes one key and bumps its version by exactly 1.
        bumps = sum(w - 1 for w in words)
        self._violate(bumps == commits,
                      f"versions advanced {bumps} times for {commits} "
                      "commits")


# --------------------------------------------------------------- faults_lossy
class FaultsLossy(Rig):
    """Closed-loop 64 B WRITEs while machine 1's ports drop 2.5% of
    packets and black-hole for 5 ms; machine 2's ports stay clean."""

    name = "faults_lossy"
    THREADS = 8
    OPS = 15_000
    #: At 2.5% about 1.25% of all WRs retransmit once, so p99 measures
    #: the retransmission itself; at 1% it sat at the edge of the
    #: loss-free tail and moved 6-16% from one set of seeds to another.
    DROP = 0.025
    BLACKHOLE_NS = 5e6
    #: WRs each thread keeps in flight, so a RETRY_EXC also flushes one.
    DEPTH = 2

    def __init__(self, seed: int, scale: float):
        super().__init__(machines=3)
        ctx = self.ctx
        self.region = ctx.register(0, MIB, socket=0)
        n = _scaled(self.OPS, scale)
        n -= n % self.DEPTH
        n = max(n, self.DEPTH)
        t0 = time.perf_counter()
        rngs = _rngs(seed, self.name, self.THREADS + 1)
        plans = [(rng.integers(0, MIB // 64, size=n) * 64).tolist()
                 for rng in rngs[:self.THREADS]]
        self.gen_s = time.perf_counter() - t0
        self.attempted = n * self.THREADS
        self.injector = FaultInjector(self.sim, rng=rngs[-1])
        self.lossy_ports = self.cluster[1].ports
        for port in self.lossy_ports:
            self.injector.drop_port(port, self.DROP)
        self.procs = []
        for t, plan in enumerate(plans):
            machine, socket = 1 + t % 2, (t // 2) % 2
            qp = ctx.create_qp(
                machine, 0,
                local_port=self.cluster[machine].port_for_socket(socket).index,
                remote_port=socket, sq_socket=socket)
            lmr = ctx.register(machine, 4096, socket=socket)
            worker = Worker(ctx, machine, socket, name=f"lossy{t}")
            self.procs.append((worker, qp, lmr, plan))

    def _blackhole(self) -> None:
        for port in self.lossy_ports:
            self.injector.blackhole_port(port, duration_ns=self.BLACKHOLE_NS)

    def _client(self, t, worker, qp, lmr, plan):
        sim, ctx = self.sim, self.ctx
        lats = self.latencies
        outcomes = self.outcomes
        ok = CompletionStatus.SUCCESS
        # Thread 0 runs on machine 1: one fifth of the way through its
        # stream it black-holes its machine's ports.
        trigger = len(plan) // 5 // self.DEPTH * self.DEPTH if t == 0 else None
        for k in range(0, len(plan), self.DEPTH):
            if k == trigger:
                self._blackhole()
            posted = []
            for off in plan[k:k + self.DEPTH]:
                wr = WorkRequest(Opcode.WRITE, sgl=[Sge(lmr, 0, 64)],
                                 remote_mr=self.region, remote_offset=off,
                                 move_data=False)
                t0 = sim.now
                posted.append(((yield from worker.post(qp, wr)), t0))
            failed = False
            for ev, t0 in posted:
                comp = yield from worker.wait(ev)
                if comp.status is ok:
                    outcomes["ok"] += 1
                    lats.append(comp.timestamp_ns - t0)
                else:
                    outcomes[comp.status.value] += 1
                    failed = True
            if failed:
                # Drain the errored QP, then cycle it back to RTS.
                while qp.state is QPState.ERR and qp.outstanding:
                    yield sim.timeout(ctx.params.retrans_timeout_ns)
                if qp.state is QPState.ERR:
                    yield ctx.reconnect_qp(qp)

    def run(self) -> None:
        sim = self.sim
        procs = [sim.process(self._client(t, *p), name=f"lossy{t}")
                 for t, p in enumerate(self.procs)]
        sim.run(until=AllOf(sim, procs))

    def _check(self) -> None:
        reconnects = sum(q.reconnects for q in self.ctx.qps)
        self._violate(reconnects >= 1, "the blackhole forced no reconnect")
        self._violate(self.outcomes["retry_exceeded"] >= 1,
                      "the blackhole forced no RETRY_EXC completion")
        known = {"ok", "retry_exceeded", "wr_flushed"}
        self._violate(set(self.outcomes) <= known,
                      f"unexpected outcomes {sorted(self.outcomes)}")


WORKLOADS = {cls.name: cls for cls in
             (ServeBursty, VerbsMix, TxnContended, FaultsLossy)}


def build_workload(name: str, seed: int, scale: float) -> Rig:
    """Set up one workload: build the rig and draw its inputs."""
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    return WORKLOADS[name](seed, scale)
