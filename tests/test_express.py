"""Express-lane equivalence (docs/PERFORMANCE.md, "Express lane").

The closed-form WR timeline must be *bit-identical* to the stepped
generator: same completion timestamps, statuses, retry counts and
returned values, same payload bytes in both memory regions, same final
clock — while dispatching strictly fewer events.  Port faults (loss,
retransmission, RETRY_EXC, flushes, slow and jittery ports) are modelled
on the lane, so arming one mid-run keeps posts on it, as does attaching
a sanitizer or a tracer (the lane stamps the same per-stage trace
records).  SENDs, queued fabric routes and DCQCN pacing ride the lane as
well: it is the only verbs path in production, and the stepped
reference (:mod:`repro.check.stepped`, installed by
``differential.run(fn, express=False)``) is what every lane run is
compared against.
"""

import contextlib
import functools
import random
from collections import Counter

import pytest

from repro import build
from repro.check import Sanitizer, differential
from repro.check.stepped import SteppedLane
from repro.hw.faults import FaultInjector
from repro.sim import Store, make_rng
from repro.verbs import Worker
from repro.verbs.express import ExpressState
from repro.verbs.trace import OpTracer
from repro.verbs.qp import QPState, tally
from repro.verbs.types import CompletionStatus, Opcode, Sge, WorkRequest
from tests.engine_ref import always_push
from tests.gc_census import cyclic_garbage
from tests.lane_wakes import BOOKED, lane_wakes

#: Transfer sizes straddling max_inline_bytes=220 so the mix exercises
#: both the inline WQE path and the separate payload-DMA path.
SIZES = (8, 32, 64, 220, 221, 256, 1024, 4096)


def _random_wr(rng: random.Random, lmr, rmr, i: int) -> WorkRequest:
    kind = rng.choice(("write", "write", "read", "read", "cas", "faa",
                       "send"))
    signaled = rng.random() < 0.8
    if kind == "send":
        # Two-sided: the payload lands in the peer's recv Store.
        return WorkRequest(opcode=Opcode.SEND, wr_id=i, payload=i,
                           payload_bytes=rng.choice(SIZES),
                           signaled=signaled)
    if kind in ("write", "read"):
        size = rng.choice(SIZES)
        loff = rng.randrange(0, lmr.size - size)
        roff = rng.randrange(0, rmr.size - size)
        # One READ in three moves no data (its delivery DMA can lease).
        return WorkRequest(
            opcode=Opcode.WRITE if kind == "write" else Opcode.READ,
            wr_id=i, sgl=[Sge(lmr, loff, size)], remote_mr=rmr,
            remote_offset=roff, signaled=signaled,
            move_data=kind == "write" or i % 3 != 0)
    # A handful of hot words so atomics contend on the word locks.
    roff = 8 * rng.randrange(8)
    if kind == "cas":
        return WorkRequest(opcode=Opcode.CAS, wr_id=i, remote_mr=rmr,
                           remote_offset=roff, compare=rng.randrange(4),
                           swap=rng.randrange(1 << 32), signaled=signaled)
    return WorkRequest(opcode=Opcode.FAA, wr_id=i, remote_mr=rmr,
                       remote_offset=roff, add=rng.randrange(1, 1000),
                       signaled=signaled)


def _row(comp) -> tuple:
    return (comp.wr_id, comp.opcode.value, comp.timestamp_ns, comp.value,
            comp.byte_len, comp.status.value, comp.retries)


def _mix_rig(express: bool, cross: bool = False) -> tuple:
    """(sim, ctx, lmr, rmr, qps): two machines on one lane, a filled 32 KB
    local region, a 32 KB remote one (both on socket 0) and two QPs from
    machine 0 to 1 on port 0.  With ``cross`` both QPs land on the
    responder's port 1, on socket 1, and the second one leaves from port
    1 too: the drains, and the second QP's payload fetches, cross
    sockets and can end after the rx and tx holds beside them."""
    sim, cluster, ctx = differential.run(
        lambda: build(machines=2), express).value
    lmr = ctx.register(0, 1 << 15)
    rmr = ctx.register(1, 1 << 15)
    lmr.write(0, bytes(range(256)) * (lmr.size // 256))
    if not cross:
        return sim, ctx, lmr, rmr, [ctx.create_qp(0, 1), ctx.create_qp(0, 1)]
    return sim, ctx, lmr, rmr, [
        ctx.create_qp(0, 1, remote_port=1),
        ctx.create_qp(0, 1, local_port=1, remote_port=1)]


def _outcome(sim, ctx, lmr, rmr, log, posts) -> dict:
    """A mix's completion log, every QP's received SENDs, both memories,
    the clock, RC transport counters over every QP and port, and its post
    calls."""
    ports = [p for m in ctx.cluster for p in m.ports]
    return {
        "log": log,
        "recv": [q.recv_queue.items for q in ctx.qps],
        "rmem": rmr.read(0, rmr.size),
        "lmem": lmr.read(0, lmr.size),
        "now": sim.now,
        "transport": {
            "retransmissions": sum(q.retransmissions for q in ctx.qps),
            "flushed_wrs": sum(q.flushed_wrs for q in ctx.qps),
            "fatal_errors": sum(q.fatal_errors for q in ctx.qps),
            "reconnects": sum(q.reconnects for q in ctx.qps),
            "packets_dropped": sum(p.packets_dropped for p in ports),
        },
        "posts": len(posts),
    }


def _run_mix(seed: int, express: bool, n_ops: int = 120, depth: int = 6,
             batch: int = 0, trigger=None, cross: bool = False
             ) -> tuple[dict, int, object]:
    """Drive a seeded random op mix (``cross``: see :func:`_mix_rig`);
    returns (comparable outcome, events dispatched, the sim's express
    state or None)."""
    sim, ctx, lmr, rmr, qps = _mix_rig(express, cross)
    w = Worker(ctx, 0)
    rng = random.Random(seed)
    log: list[tuple] = []
    posts = []

    def client():
        inflight = []
        i = 0
        fired = trigger is None
        while i < n_ops:
            if not fired and i >= n_ops // 2:
                fired = True
                trigger(sim, ctx)
            qp = qps[rng.randrange(2)]
            posts.append(i)
            if batch and rng.random() < 0.5:
                wrs = [_random_wr(rng, lmr, rmr, i + k)
                       for k in range(batch)]
                i += batch
                events = yield from w.post_batch(qp, wrs)
                inflight.extend(events)
            else:
                wr = _random_wr(rng, lmr, rmr, i)
                i += 1
                ev = yield from w.post(qp, wr)
                inflight.append(ev)
            while len(inflight) >= depth:
                comp = yield from w.wait(inflight.pop(0))
                log.append(_row(comp))
        for ev in inflight:
            comp = yield from w.wait(ev)
            log.append(_row(comp))

    sim.run(until=sim.process(client()))
    return (_outcome(sim, ctx, lmr, rmr, log, posts), sim.events_processed,
            sim.express)


#: Handler -> the ``_counted_branches`` site its wake counts at.
_SITES = {"_exec_done": "join", "_svc_resume": "join", "_try_finish": "cqe"}


@contextlib.contextmanager
def _counted_branches():
    """Yield a Counter of how the lane's tail dispatches ran: ``(site,
    branch)`` with site ``join`` (a cut-through join's resume wake,
    ``_exec_done`` or ``_svc_resume``), ``cqe`` (the CQE-DMA-end wake,
    ``_try_finish``) or ``completion`` (the ``done`` that wake succeeds),
    and branch ``inline`` when the engine dispatched it in place from its
    tail slot (``heappushpop`` handed the tail back) or ``wake`` when it
    popped it from the heap."""
    from repro.sim import engine

    seen = Counter()
    orig_complete = ExpressState._complete
    cqe = [None]  # the op whose CQE-DMA-end wake is running
    orig_pop, orig_pushpop = engine.heappop, engine.heappushpop
    slot = [False]  # did the running dispatch come from the tail slot?

    def pop(heap):
        slot[0] = False
        return orig_pop(heap)

    def pushpop(heap, item):
        entry = orig_pushpop(heap, item)
        slot[0] = entry is item
        return entry

    def branch():
        return "inline" if slot[0] else "wake"

    def wake(op, handler, arg):
        site = _SITES.get(handler)
        if site is not None:
            seen[site, branch()] += 1
        cqe[0] = op if handler == "_try_finish" else None

    def complete(self, op, arg):
        orig_complete(self, op, arg)
        if cqe[0] is op:  # witnessed where ``done`` dispatches
            op.done.add_callback(lambda _ev: seen.update(
                [("completion", branch())]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExpressState, "_complete", complete)
        mp.setattr(engine, "heappop", pop)
        mp.setattr(engine, "heappushpop", pushpop)
        with lane_wakes(wake):
            yield seen


#: Every (site, branch) pair of ``_counted_branches``, and the in-place
#: half that every random mix takes.
BRANCHES = {(site, branch) for site in ("join", "cqe", "completion")
            for branch in ("inline", "wake")}
INLINE = {b for b in BRANCHES if b[1] == "inline"}


def _holder(unit) -> str:
    """How ``unit`` is held: ``free``, ``lease`` (a timed hold without
    ``end`` that nobody waits behind), ``queue`` (waiters queued) or
    ``book`` (any other hold)."""
    if not unit.in_use:
        return "free"
    waiters = unit._waiters
    if waiters is None:
        return "book"
    return "lease" if waiters.__class__ is tuple else "queue"


@contextlib.contextmanager
def _counted_leases():
    """Yield a Counter of how the lane held each cut-through pair and
    each READ's delivery DMA.  A "lease" is a timed ``Resource.hold``
    with a ``grant`` and no ``end`` (it continues at its grant), a
    "book" one with an ``end``.  ``(pair, branch)`` has pair
    ``fetch∥tx`` or ``rx∥drain`` and branch the half it leased
    (``fetch``, ``tx``, ``rx``, ``drain``) or, when it booked both
    halves, ``tie`` (equal ends) or ``busy`` (the earlier half's unit
    was held); and ``("delivery", "lease")`` or ``("delivery",
    "book")``.  A data-less WRITE that leased both service halves counts
    ``("rx+drain", "rx <holder>, drain <holder>")`` (:func:`_holder`,
    before the leases), and ``("rx+drain", "tie")`` too when both halves
    were granted at once with equal ends."""
    from repro.sim import Resource

    seen = Counter()
    leased = []  # the units leased since the wrapped call began
    ends = []    # and the ends of those granted inline
    cut, read_back = ExpressState._cut_through, ExpressState._read_back
    granted = ExpressState._write_granted
    hold = Resource.hold

    def counting_hold(res, dur, grant=None, end=None):
        if dur is None or end is not None:  # not a lease
            hold(res, dur, grant, end)
            return
        leased.append(res)
        free = res.in_use == 0
        hold(res, dur, grant, end)
        if free:
            ends.append(res.sim.now + dur)

    def counting_granted(self, op, arg):
        rp = op.qp.remote_port
        units = [rp.rx_unit, rp.pcie._bus]
        held = [_holder(u) for u in units]
        del leased[:], ends[:]
        granted(self, op, arg)
        if leased == units:
            seen["rx+drain", "rx {}, drain {}".format(*held)] += 1
            if len(ends) == 2 and ends[0] == ends[1]:
                seen["rx+drain", "tie"] += 1

    def counting_cut(self, op, unit1, dur1, cb1, unit2, dur2, cb2):
        del leased[:]
        now = self.sim.now
        tie = now + dur1 == now + dur2
        cut(self, op, unit1, dur1, cb1, unit2, dur2, cb2)
        halves = (("fetch", "tx") if cb1.func.__name__ == "_fetch_end"
                  else ("rx", "drain"))
        if leased:
            branch = halves[leased == [unit2]]
        else:
            branch = "tie" if tie else "busy"
        seen["∥".join(halves), branch] += 1

    def counting_read_back(self, op, arg):
        del leased[:]
        read_back(self, op, arg)
        seen["delivery", "lease" if leased else "book"] += 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Resource, "hold", counting_hold)
        mp.setattr(ExpressState, "_cut_through", counting_cut)
        mp.setattr(ExpressState, "_read_back", counting_read_back)
        mp.setattr(ExpressState, "_write_granted", counting_granted)
        yield seen


#: The ``_counted_leases`` branches every cross-socket random mix takes:
#: each lease (either half of both pairs, a data-less READ's delivery)
#: and each booking that could not lease (only a directed test forces a
#: ``tie``, which needs two equal floats).
LEASES = {("fetch∥tx", "fetch"), ("fetch∥tx", "tx"), ("fetch∥tx", "busy"),
          ("rx∥drain", "rx"), ("rx∥drain", "drain"), ("rx∥drain", "busy"),
          ("delivery", "lease"), ("delivery", "book")}


# ------------------------------------------------------ the property test
@pytest.mark.parametrize("seed", range(6))
def test_express_equals_stepped_random_mix(seed):
    """A random mix over a same-socket QP and a cross-socket one equals
    the stepped lane, with fewer events, and takes every tail branch in
    place and every lease."""
    stepped, ev_stepped, exp = _run_mix(seed, express=False, cross=True)
    assert isinstance(exp, SteppedLane)  # the reference, not the lane
    with _counted_posts() as posts, _counted_branches() as branches, \
            _counted_leases() as leases:
        express, ev_express, exp = _run_mix(seed, express=True, cross=True)
    assert isinstance(exp, ExpressState)
    assert len(posts) == express["posts"]  # every post rode the lane
    assert express == stepped
    assert ev_express < ev_stepped  # fewer events is the lane's point
    assert INLINE <= branches.keys(), branches
    assert LEASES <= leases.keys(), leases


@pytest.mark.parametrize("seed", range(3))
def test_express_equals_stepped_batched_mix(seed):
    """Doorbell-batched posts ride the lane too (shared WQE fetch, mates
    chained off the lead) and must stay bit-identical."""
    stepped, ev_stepped, _ = _run_mix(seed, express=False, batch=4)
    with _counted_posts() as posts, _counted_branches() as branches:
        express, ev_express, exp = _run_mix(seed, express=True, batch=4)
    assert len(posts) == express["posts"]
    assert express == stepped
    assert ev_express < ev_stepped
    assert INLINE <= branches.keys(), branches


def test_random_mixes_take_every_tail_branch():
    """Across the random mixes above, each tail-wake site runs both in
    place and through its wake.  A fallback needs another entry at the
    instant, which a one-client mix hits a few times per run at most, so
    coverage is asserted over all their seeds; every run must still
    equal its stepped twin."""
    seen = Counter()
    for seed, batch in [(s, 0) for s in range(6)] + [(s, 4) for s in range(3)]:
        stepped, _, _ = _run_mix(seed, express=False, batch=batch)
        with _counted_branches() as branches:
            express, _, _ = _run_mix(seed, express=True, batch=batch)
        assert express == stepped, (seed, batch)
        seen.update(branches)
    assert set(seen) == BRANCHES, seen


def test_idle_rig_runs_tail_wakes_in_place():
    """On an idle rig almost every dispatch is provably the next one when
    it is scheduled, so the engine runs it in place.  One cut-through
    4 KB WRITE (payload∥tx and rx∥drain joins) and one 64 B READ
    dispatch 23 entries in all (25 before the half of each cut-through
    pair that ends first became a lease, 27 before the READ's responder
    rx and response tx did, 28 before the WRITE's ACK wire and CQE DMA
    shared one wake, 30 before the lane's CQE deposit dropped its
    put-ack).  Only the client process's boot, pushed before ``run()``,
    takes the heap.  The other 22 run in place: among them the tx and rx
    ends that close each pair (they took the heap while the half that
    ends first had a wake of its own: 3 and 22), and the client's
    CPU-cost sleeps and end (before every trigger shared the tail slot,
    only lane wakes could run in place: 9 and 19).  The completion log
    and memories still equal the stepped reference's."""
    def run(express: bool):
        sim, cluster, ctx = differential.run(
            lambda: build(machines=2), express).value
        lmr = ctx.register(0, 8192)
        rmr = ctx.register(1, 8192)
        lmr.write(0, bytes(range(256)) * 32)
        rmr.write(4096, bytes(range(255, -1, -1)) * 16)
        qp = ctx.create_qp(0, 1)
        w = Worker(ctx, 0)
        log = []

        def client():
            log.append(_row((yield from w.write(
                qp, src=lmr[0:4096], dst=rmr[0:4096], wr_id=1))))
            log.append(_row((yield from w.read(
                qp, src=rmr[4096:4160], dst=lmr[4096:4160], wr_id=2))))

        sim.run(until=sim.process(client()))
        outcome = {"log": log, "lmem": lmr.read(0, lmr.size),
                   "rmem": rmr.read(0, rmr.size), "now": sim.now}
        return outcome, (sim.events_processed, sim.events_in_place)

    stepped, _ = run(express=False)
    with _counted_branches() as branches:
        express, (events, in_place) = run(express=True)
    assert express == stepped
    assert {r[5] for r in express["log"]} == {CompletionStatus.SUCCESS.value}
    assert branches == {("join", "inline"): 2, ("cqe", "inline"): 2,
                        ("completion", "inline"): 2}
    assert (events, in_place) == (1, 22)
    assert events + in_place == 23


# ------------------------------------ one wake for the ACK and the CQE
#: wr_id -> the last two handlers the lane wakes ``_fold_wrs``'s WR at.
FOLD_TAILS = {
    1: ("_svc_resume", "_try_finish"),  # signaled inline WRITE
    2: ("_svc_resume", "_try_finish"),  # signaled cut-through WRITE
    3: ("_atomic_end", "_try_finish"),  # CAS
    4: ("_atomic_end", "_try_finish"),  # FAA
    5: ("_svc_resume", "_tail_end"),  # unsignaled WRITE: its ACK completes it
    6: ("_tail_end", "_try_finish"),  # SEND: the ACK lands it in the recv queue
}


def _fold_wrs(lmr, rmr) -> list[WorkRequest]:
    def write(wr_id, size, roff, signaled=True):
        return WorkRequest(Opcode.WRITE, wr_id=wr_id, sgl=[Sge(lmr, 0, size)],
                           remote_mr=rmr, remote_offset=roff,
                           signaled=signaled)

    return [write(1, 64, 0), write(2, 4096, 4096),
            WorkRequest(Opcode.CAS, wr_id=3, remote_mr=rmr, remote_offset=64,
                        compare=0, swap=7),
            WorkRequest(Opcode.FAA, wr_id=4, remote_mr=rmr, remote_offset=72,
                        add=5),
            write(5, 64, 128, signaled=False),
            WorkRequest(Opcode.SEND, wr_id=6, payload="x", payload_bytes=64)]


def _fold_run(express: bool) -> tuple[list, list]:
    """Each of ``_fold_wrs`` on its own QP, all posted at 0 and traced:
    (completion rows in post order, trace records in commit order)."""
    sim, cluster, ctx = differential.run(
        lambda: build(machines=2), express).value
    lmr, rmr = ctx.register(0, 8192), ctx.register(1, 8192)
    tracer = OpTracer()
    ctx.attach_tracer(tracer)
    events = [ctx.create_qp(0, 1).post_send(wr) for wr in _fold_wrs(lmr, rmr)]
    sim.run()
    return [_row(ev.value) for ev in events], _records(tracer)


def test_signaled_writes_and_atomics_wake_once_for_ack_and_cqe():
    """On the lane, a signaled WRITE (inline and cut-through), CAS and
    FAA wake at service end and next at their CQE-DMA end
    (``_try_finish``): the ACK lands between the two with no wake of its
    own.  An unsignaled WRITE and a SEND still wake when their ACK lands
    (``_tail_end``).  Both lanes log the same completions and commit the
    same trace records, the ``response_net`` stage (stamped at the ACK
    instant) included."""
    stepped = _fold_run(express=False)
    with lane_wakes(lambda op, handler, arg: (op.wr.wr_id, handler)) as wakes:
        lane = _fold_run(express=True)
    assert lane == stepped
    phases: dict[int, list] = {}
    for wr_id, handler in wakes:
        phases.setdefault(wr_id, []).append(handler)
    assert {k: tuple(v[-2:]) for k, v in phases.items()} == FOLD_TAILS
    records = lane[1]
    assert len(records) == len(FOLD_TAILS)
    assert all(r[4]["response_net"] > 0.0 for r in records)


def test_an_entry_at_the_folded_cqe_instant_runs_after_it_on_both_lanes():
    """The fold moves one thing: a signaled WRITE's CQE wake is allocated
    at service end, so it runs ahead of an entry for the same instant
    scheduled between service end and ACK arrival (with a wake per hop
    it ran behind).  A probe scheduled there, at exactly the CQE-DMA
    end, polls the CQE on both lanes."""
    def run(express: bool, probe=None):
        sim, cluster, ctx = differential.run(
            lambda: build(machines=2), express).value
        lmr, rmr = ctx.register(0, 4096), ctx.register(1, 4096)
        tracer = OpTracer()
        ctx.attach_tracer(tracer)
        qp = ctx.create_qp(0, 1)
        done = qp.post_send(WorkRequest(
            Opcode.WRITE, wr_id=1, sgl=[Sge(lmr, 0, 64)], remote_mr=rmr,
            remote_offset=0))
        polled = []
        if probe is not None:
            at, cqe_end = probe
            sim.call_at(at, lambda _ev: sim.call_at(
                cqe_end, lambda _ev: polled.append(qp.cq.poll())))
        sim.run()
        return (done.value, tracer.records[0].stages["response_net"],
                cluster.params.cqe_dma_ns, polled)

    comp, wire, cqe_dma, _ = run(express=False)
    # Halfway down the ACK wire: after service end, before ACK arrival.
    probe = (comp.timestamp_ns - cqe_dma - wire / 2, comp.timestamp_ns)
    for express in (False, True):
        got, _, _, polled = run(express, probe)
        assert got == comp
        assert polled == [comp], express


# ------------------------------------------- tail wakes across layers
def _serve(tail: bool) -> tuple[dict, object]:
    """Open-loop KV serving on the lane: two tenants (one rate-limited
    with a deadline) through the tenancy plane, lease caches and front
    doors, bursty arrivals and bare think-time delays, every dispatch
    traced.  ``tail=False`` runs it under ``always_push()``, where every
    entry takes a heap round trip."""
    from repro.apps.hashtable.backend import HashTableBackend
    from repro.apps.hashtable.layout import TableLayout
    from repro.hw.params import ServiceConfig, TenantSpec
    from repro.load import (InvalidationDirectory, KvFrontDoor, LeaseCache,
                            OpenLoopGenerator, preload_table)
    from repro.tenancy import ServicePlane

    with _counted_posts() as posts, (
            contextlib.nullcontext() if tail else always_push()):
        sim, cluster, ctx = differential.run(
            lambda: build(machines=3), express=True).value
        timeline = []
        sim.trace_dispatch = lambda w, p, s: timeline.append((w, p, s))
        plane = ServicePlane(ctx, ServiceConfig(tenants=(
            TenantSpec("web"),
            TenantSpec("batch", weight=2.0, rate_mops=0.5, burst_ops=2,
                       deadline_ns=3_000.0)), scheduler_slots=4))
        layout = TableLayout(n_keys=64, hot_keys=0,
                             sockets=ctx.params.sockets_per_machine)
        backend = HashTableBackend(ctx, 0, layout)
        directory = InvalidationDirectory(sim)
        preload_table(backend, directory)
        doors = [KvFrontDoor(plane, backend, tenant, machine=m,
                             cache=LeaseCache(sim, capacity=16,
                                              lease_ns=1e6),
                             directory=directory)
                 for tenant, m in (("web", 1), ("batch", 2))]
        rng = random.Random(5)

        def request(i):
            door = doors[i % 2]
            key = rng.randrange(24)
            if rng.random() < 0.3:
                yield rng.random() * 500.0  # think time: a bare delay
            if i % 5 == 0:
                return (yield from door.put(key, b"v%d" % i))
            return (yield from door.get(key))

        # Bursts of up to six same-instant arrivals, 0-3 us apart.
        times, t = [], 0.0
        for _ in range(60):
            t += rng.choice((0.0, 250.0, 1000.0, 3000.0))
            times.extend([t] * rng.randint(1, 6))
        gen = OpenLoopGenerator(sim, request, times)
        gen.start()
        gen.drain()
    outcome = {
        "timeline": timeline,
        "latencies": gen.latencies,
        "tally": (gen.offered, gen.delivered, gen.hits, gen.sheds,
                  gen.errors),
        "now": sim.now,
        "posts": len(posts),
    }
    return outcome, sim


def test_tail_wakes_keep_the_serving_timeline():
    """In-place dispatch from every layer (open-loop arrivals and think
    times, tenancy rounds and relays, lane holds, wires and completions)
    keeps the exact traced ``(time, priority, seq)`` timeline and
    outcomes of a run where every entry takes a heap round trip, while a
    share of the dispatches runs in place."""
    ref, ref_sim = _serve(tail=False)
    got, sim = _serve(tail=True)
    assert got == ref
    offered, delivered, hits, sheds, _ = got["tally"]
    assert got["posts"] > 0 and delivered and hits and sheds
    assert delivered + sheds == offered
    assert ref_sim.events_in_place == 0 < sim.events_in_place
    assert (sim.events_processed + sim.events_in_place
            == ref_sim.events_processed == len(got["timeline"]))


# ------------------------------------------------------ mid-run lane flips
#: (seed, doorbell batch) pairs every flip trigger is checked over.
FLIP_RUNS = [(seed, batch) for seed in range(10) for batch in (0, 3)]


def _send_one(sim, ctx):
    """Post one SEND on the mix's first QP (the peer's recv Store absorbs
    it)."""
    ctx.qps[0].post_send(WorkRequest(
        opcode=Opcode.SEND, wr_id=10_000, payload="mid-run",
        payload_bytes=64, signaled=False))


@contextlib.contextmanager
def _counted_posts():
    """Yield a list that gains one entry per express-lane post."""
    posts = []
    orig_post, orig_batch = ExpressState.post, ExpressState.post_batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExpressState, "post", lambda self, *a, **k: (
            posts.append(1), orig_post(self, *a, **k))[1])
        mp.setattr(ExpressState, "post_batch", lambda self, *a, **k: (
            posts.append(1), orig_batch(self, *a, **k))[1])
        yield posts


def _check_flip(trigger) -> tuple[int, int]:
    """Fire ``trigger`` at op 60 on both lanes over FLIP_RUNS.

    Every run must match the all-stepped reference run with the same
    trigger: completion log, both memories, the final clock and the
    transport counters.  Returns (runs whose lane kept taking posts
    after the flip, retransmissions summed over the lane runs).
    """
    resumed = retransmissions = 0
    with _counted_posts() as posts:
        for seed, batch in FLIP_RUNS:
            at = {}

            def fire(sim, ctx):
                at["n"] = len(posts)
                trigger(sim, ctx)

            reference, _, _ = _run_mix(seed, express=False, batch=batch,
                                       trigger=trigger)
            del posts[:]
            outcome, _, _ = _run_mix(seed, express=True, batch=batch,
                                     trigger=fire)
            assert 0 < at["n"], "the lane never ran before the flip"
            resumed += len(posts) > at["n"]
            retransmissions += outcome["transport"]["retransmissions"]
            log = outcome["log"]
            assert sorted(r[0] for r in log) == list(range(len(log)))
            assert len(log) >= 120
            assert {r[5] for r in log} == {CompletionStatus.SUCCESS.value}
            assert outcome == reference, (seed, batch)
    return resumed, retransmissions


def _later(arm):
    """Trigger that arms ``arm(injector, qp)`` 20 us after the flip, once
    the express ops in flight at the flip have moved on."""
    def trigger(sim, ctx):
        injector = FaultInjector(sim, rng=make_rng(3))
        sim.call_at(sim.now + 20_000.0,
                    lambda _ev: arm(injector, ctx.qps[0]))
    return trigger


def _now(arm):
    """Trigger that arms ``arm(injector, qp)`` at the flip instant, while
    express ops are in flight on the afflicted port."""
    def trigger(sim, ctx):
        arm(FaultInjector(sim, rng=make_rng(3)), ctx.qps[0])
    return trigger


#: name -> (trigger, lossy).  Both QPs of the mix share both ports.
MID_RUN_FAULTS = {
    "slow_remote_later": (_later(
        lambda inj, qp: inj.slow_port(qp.remote_port, 2.0)), False),
    "slow_local_now": (_now(
        lambda inj, qp: inj.slow_port(qp.local_port, 2.0)), False),
    "jitter_local": (_now(
        lambda inj, qp: inj.jitter_port(qp.local_port, 400.0)), False),
    "jitter_remote_healed": (_now(
        lambda inj, qp: inj.jitter_port(qp.remote_port, 400.0,
                                        duration_ns=15_000.0)), False),
    "drop_local_now": (_now(
        lambda inj, qp: inj.drop_port(qp.local_port, 0.1)), True),
    "drop_remote_later": (_later(
        lambda inj, qp: inj.drop_port(qp.remote_port, 0.1)), True),
    "blackhole_remote_healed": (_now(
        lambda inj, qp: inj.blackhole_port(qp.remote_port,
                                           duration_ns=100_000.0)), True),
}


@pytest.mark.parametrize("fault", sorted(MID_RUN_FAULTS))
def test_port_fault_armed_mid_run_stays_on_lane(fault):
    """A port fault armed mid-run reaches the lane at the dispatches where
    the stepped path samples it: express ops in flight pay it from the
    instant it is armed, and posts keep taking the lane after it."""
    trigger, lossy = MID_RUN_FAULTS[fault]
    resumed, retransmissions = _check_flip(trigger)
    assert resumed == len(FLIP_RUNS)
    assert (retransmissions > 0) == lossy


def test_tracer_attached_mid_run_keeps_the_lane():
    """A tracer does not turn the lane off: attached mid-run, it traces
    every later post, the lane keeps booking them in every run, and both
    lanes commit the same records."""
    tracers = []

    def attach(sim, ctx):
        tracers.append(OpTracer())
        ctx.attach_tracer(tracers[-1])

    resumed, _ = _check_flip(attach)
    assert resumed == len(FLIP_RUNS)
    records = [_records(tracer) for tracer in tracers]
    assert all(records)
    assert records[0::2] == records[1::2]


def test_sanitizer_attached_mid_run_keeps_the_lane():
    """An installed sanitizer does not turn the lane off: attached
    mid-run, it sees every later post, and the lane keeps booking posts
    in every run."""
    sanitizers = []
    resumed, _ = _check_flip(
        lambda sim, ctx: sanitizers.append(Sanitizer(sim)))
    assert resumed == len(FLIP_RUNS)
    # Installed mid-run, the checkers see completions of WRs posted
    # before them; both lanes must report exactly the same findings.
    reports = [[(v.checker, v.message) for v in san.finalize().violations]
               for san in sanitizers]
    assert reports[0::2] == reports[1::2]


def test_send_mid_run_keeps_the_lane():
    """A SEND rides the lane like any other post: posted mid-run, it and
    every post after it take the lane, and the run equals the stepped
    reference; a small client's SEND and WRITE both ride it."""
    assert _check_flip(_send_one)[0] == len(FLIP_RUNS)
    sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 4096)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)

    def client():
        yield from w.send(qp, "hello", 64)
        yield from w.write(qp, src=lmr[0:64], dst=rmr[0:64])

    with _counted_posts() as posts:
        sim.run(until=sim.process(client()))
    assert len(posts) == 2 and qp.completed == 2
    assert [c.value for c in qp.recv_queue.items] == ["hello"]


def test_sends_to_one_port_equal_the_stepped_lane():
    """Two clients SEND to one responder port: empty (a 1 B landing
    DMA), inline and cut-through payloads, signaled or not, through one
    shared recv Store that a server drains.  The lane's completions,
    received SENDs (order, timestamps and the instants the server got
    them), port and PCIe counters and clock equal the stepped lane's,
    with fewer events."""
    def run(express: bool):
        sim, cluster, ctx = differential.run(
            lambda: build(machines=3), express).value
        inbox = Store(sim)
        qps = [ctx.create_qp(m, 2, recv_queue=inbox) for m in (0, 1)]
        log, served = [], []

        def server():
            while True:
                got = yield inbox.get()
                served.append((sim.now, _row(got)))

        def client(k):
            w = Worker(ctx, k)
            for i, size in enumerate((0, 8, 220, 221, 4096) * 3):
                wr_id = 100 * k + i
                ev = yield from w.post(qps[k], WorkRequest(
                    Opcode.SEND, wr_id=wr_id, payload=wr_id,
                    payload_bytes=size, signaled=i % 4 != 3))
                log.append(_row((yield from w.wait(ev))))

        sim.process(server())
        sim.run(until=sim.all_of([sim.process(client(k)) for k in (0, 1)]))
        ports = [p for m in cluster for p in m.ports]
        counters = [(p.tx_ops, p.rx_ops, p.pcie.dma_bytes, p.pcie.dma_count)
                    for p in ports]
        return ({"log": log, "served": served, "counters": counters,
                 "now": sim.now}, sim.events_processed)

    stepped, ev_stepped = run(express=False)
    with _counted_posts() as posts:
        express, ev_express = run(express=True)
    assert len(posts) == 30
    assert express == stepped
    assert sorted(r[0] for _, r in express["served"]) == sorted(
        r[0] for r in express["log"])
    assert ev_express < ev_stepped


def test_reads_racing_for_one_responder_port_equal_the_stepped_lane(
        monkeypatch):
    """Two clients READ from one responder port in lockstep, so a READ's
    rx and response-tx holds, which continue at their grants, keep
    finding the other client's holding the unit and wake its end at the
    reserved key.  Completions, port counters, busy times and clock
    equal the stepped lane's."""
    from repro.sim import Resource

    woken = []
    end_wake = Resource._ended
    monkeypatch.setattr(Resource, "_ended", lambda res, ev: (
        res._end is None and woken.append(res.name), end_wake(res, ev)))

    def run(express: bool):
        sim, cluster, ctx = differential.run(
            lambda: build(machines=3), express).value
        rmr = ctx.register(2, 1 << 14)
        rmr.write(0, bytes(range(256)) * 64)
        log = []

        def client(m):
            w = Worker(ctx, m)
            qp = ctx.create_qp(m, 2)
            lmr = ctx.register(m, 4096)
            for i, size in enumerate((8, 64, 220, 4096, 512) * 4):
                off = 4096 * (i % 4)
                log.append(_row((yield from w.read(
                    qp, src=rmr[off:off + size], dst=lmr[0:size],
                    wr_id=100 * m + i))))

        sim.run(until=sim.all_of([sim.process(client(m)) for m in (0, 1)]))
        port = cluster[2].ports[0]
        return {"log": log, "now": sim.now,
                "counters": (port.tx_ops, port.rx_ops, port.pcie.dma_count),
                "busy": (port.tx_unit.busy_time(), port.rx_unit.busy_time())}

    stepped = run(express=False)
    assert not woken
    express = run(express=True)
    assert express == stepped
    assert set(woken) == {"m2.rnic.p0.tx", "m2.rnic.p0.rx"}


# ------------------------- the half of a cut-through pair that ends first
def _lane_client(ctx, log, m, qp, wrs, depth):
    """Post ``wrs`` on ``qp`` from machine ``m``, at most ``depth`` in
    flight, and log each completion when its ``done`` fires (an
    unsignaled WR has no CQE to poll)."""
    w = Worker(ctx, m)
    inflight = []
    for wr in wrs:
        inflight.append((yield from w.post(qp, wr)))
        if len(inflight) == depth:
            log.append(_row((yield inflight.pop(0))))
    for ev in inflight:
        log.append(_row((yield ev)))


def _pair_outcome(express: bool, scenario) -> dict:
    """Run ``scenario(ctx)``, a list of ``(machine, qp, wrs, depth)``
    clients, on a three-machine rig on one lane.  Returns the completion log, every
    region's bytes, every port's unit counters and tx, rx and PCIe busy
    times, and the clock."""
    sim, cluster, ctx = differential.run(
        lambda: build(machines=3), express).value
    log = []
    for client in scenario(ctx):
        sim.process(_lane_client(ctx, log, *client))
    sim.run()
    ports = [p for m in cluster for p in m.ports]
    return {"log": log, "now": sim.now,
            "mem": [mr.read(0, mr.size) for mr in ctx.regions],
            "counters": [(p.tx_ops, p.rx_ops, p.pcie.dma_bytes,
                          p.pcie.dma_count) for p in ports],
            "busy": [(p.tx_unit.busy_time(), p.rx_unit.busy_time(),
                      p.pcie._bus.busy_time()) for p in ports]}


def _lane_equals_stepped(scenario) -> Counter:
    """``scenario``'s outcome on the lane equals the stepped lane's;
    returns the lane run's ``_counted_leases``."""
    stepped = _pair_outcome(False, scenario)
    with _counted_leases() as leases:
        express = _pair_outcome(True, scenario)
    assert express == stepped
    assert express["log"] and len(express["log"]) == len(stepped["log"])
    return leases


def _writes(sizes, lsocket=0, rsocket=0, clients=(0,), depth=None,
            setup=None, moves=None, signaled=True):
    """A scenario: each client machine WRITEs ``sizes``, ``depth`` in
    flight (default: all), from a region on ``lsocket`` to one on
    ``rsocket`` of machine 2, port 0 to port 0, after ``setup(ctx)``.
    WR ``i`` of client ``m`` moves data unless ``moves(m, i)`` is
    false."""
    def scenario(ctx):
        if setup is not None:
            setup(ctx)
        rmr = ctx.register(2, 1 << 16, socket=rsocket)
        out = []
        for m in clients:
            lmr = ctx.register(m, 1 << 14, socket=lsocket)
            lmr.write(0, bytes([m + 1]) * lmr.size)
            out.append((m, ctx.create_qp(m, 2), [
                WorkRequest(Opcode.WRITE, wr_id=100 * m + i,
                            sgl=[Sge(lmr, 0, size)], remote_mr=rmr,
                            remote_offset=(1 << 14) * m + 16 * i,
                            signaled=signaled,
                            move_data=moves is None or moves(m, i))
                for i, size in enumerate(sizes)], depth or len(sizes)))
        return out
    return scenario


def _tie(ctx):
    """Make both 4 KB DMAs last exactly the link's 4 KB wire time, which
    is the 4 KB tx and rx holds once the metadata SRAM is warm, through
    the memo both lanes read DMA times from."""
    wire = ctx.params.wire_time(4096)
    for m in (0, 2):
        ctx.cluster[m].ports[0].pcie._time_cache[0, 4096, 1] = wire


def _jitter(ctx):
    """Jitter every hold of the responder port (its rx holds above all)."""
    FaultInjector(ctx.sim, rng=make_rng(7)).jitter_port(
        ctx.cluster[2].ports[0], 300.0)


#: name -> (scenario, the ``_counted_leases`` branches it must take).  A
#: 64 B WRITE's drain ends before its rx hold, and a 4 KB one's fetch
#: before its tx hold; the DMA that crosses to socket 1 ends after.
PAIR_BRANCHES = {
    "drain_first": (_writes([64]), {("rx∥drain", "drain")}),
    "rx_first": (_writes([4096], rsocket=1), {("rx∥drain", "rx")}),
    "fetch_first": (_writes([4096]), {("fetch∥tx", "fetch")}),
    "tx_first": (_writes([4096], lsocket=1), {("fetch∥tx", "tx")}),
    # The first WRITE warms the SRAM, so the second's holds are wire time.
    "tie": (_writes([4096, 4096], depth=1, setup=_tie),
            {("fetch∥tx", "tie"), ("rx∥drain", "tie")}),
    # The second WR's fetch finds the first's WQE fetch or payload fetch
    # still on the requester's bus.
    "earlier_half_busy": (_writes([4096, 4096, 4096]),
                          {("fetch∥tx", "fetch"), ("fetch∥tx", "busy")}),
    # A 1 KB drain to socket 1 ends 150 ns after an unjittered rx hold.
    "jittered_rx": (_writes([64, 1024] * 6, rsocket=1, depth=1,
                            setup=_jitter),
                    {("rx∥drain", "drain"), ("rx∥drain", "rx")}),
}


@pytest.mark.parametrize("name", sorted(PAIR_BRANCHES))
def test_cut_through_pair_branch_equals_the_stepped_lane(name):
    """Each way the lane books a cut-through pair (lease the half that
    provably ends first, or book both) keeps the completion log, region
    bytes, unit counters, every unit's busy time and the clock of the
    stepped lane."""
    scenario, branches = PAIR_BRANCHES[name]
    leases = _lane_equals_stepped(scenario)
    assert branches <= leases.keys(), leases


def test_a_waiter_behind_a_leased_drain_is_handed_over_at_its_key(
        monkeypatch):
    """Two clients WRITE 64 B to one responder port in lockstep: the
    first one's drain leases the bus (a hold without ``end``), the second
    one's drain queues behind it, so the lease's end wakes at its
    reserved key and hands the bus over there.  Everything equals the
    stepped lane."""
    from repro.sim import Resource

    woken = []
    end_wake = Resource._ended
    monkeypatch.setattr(Resource, "_ended", lambda res, ev: (
        res._end is None and woken.append(res), end_wake(res, ev)))
    buses = []

    def scenario(ctx):
        buses.append(ctx.cluster[2].ports[0].pcie._bus)
        return _writes([64] * 4, clients=(0, 1))(ctx)

    leases = _lane_equals_stepped(scenario)
    assert {("rx∥drain", "drain"), ("rx∥drain", "busy")} <= leases.keys()
    assert buses[-1] in woken


#: name -> (READ signaled, moves data, how its delivery DMA books).
DELIVERIES = {
    "signaled_dataless": (True, False, "lease"),
    "moves_data": (True, True, "book"),
    "unsignaled": (False, False, "book"),
}


@pytest.mark.parametrize("name", sorted(DELIVERIES))
def test_read_delivery_leases_only_when_nothing_waits_on_its_end(name):
    """A signaled READ that moves no data does nothing at its delivery
    DMA's end but start the CQE DMA, so it leases the bus and books the
    CQE wake at the grant.  A READ that moves data samples the responder
    at that end, and an unsignaled READ completes there: both keep the
    wake.  Back-to-back READs from two regions match the stepped lane."""
    signaled, move_data, branch = DELIVERIES[name]

    def scenario(ctx):
        rmr = ctx.register(2, 1 << 14)
        rmr.write(0, bytes(range(256)) * 64)
        lmr = ctx.register(0, 1 << 14)
        return [(0, ctx.create_qp(0, 2), [
            WorkRequest(Opcode.READ, wr_id=i, sgl=[Sge(lmr, 4096 * i, size)],
                        remote_mr=rmr, remote_offset=512 * i,
                        signaled=signaled, move_data=move_data)
            for i, size in enumerate((64, 4096, 220, 1024))], 4)]

    leases = _lane_equals_stepped(scenario)
    assert leases == {("delivery", branch): 4}


# ------------------------------------- a data-less WRITE's leased service
def _dataless(m, i):
    return False


def _read_then_writes(ctx):
    """Client 0 READs 16 KB from machine 2's port 0 while client 1 WRITEs
    64 B there without data, one at a time: a WRITE arriving while the
    READ's response fetch holds the responder's bus finds its rx unit
    free."""
    rmr = ctx.register(2, 1 << 15)
    out = []
    for m, wrs in ((0, [WorkRequest(Opcode.READ, wr_id=0,
                                    sgl=[Sge(ctx.register(0, 1 << 14), 0,
                                             1 << 14)],
                                    remote_mr=rmr, remote_offset=0,
                                    move_data=False)]),
                   (1, [WorkRequest(Opcode.WRITE, wr_id=100 + i,
                                    sgl=[Sge(ctx.register(1, 64), 0, 64)],
                                    remote_mr=rmr, remote_offset=64 * i,
                                    move_data=False)
                        for i in range(12)])):
        out.append((m, ctx.create_qp(m, 2), wrs, 1))
    return out


#: name -> (scenario, the ``_counted_leases`` branches it must take).  A
#: WRITE that moves no data and takes no word lock leases its rx hold
#: and its drain DMA whatever holds their units.
DATALESS = {
    "both_free": (_writes([64, 256], depth=1, moves=_dataless),
                  {("rx+drain", "rx free, drain free")}),
    # Client 0's 64 B WRITE moves data: its drain leases and its rx
    # books, and client 1's arrives at the same instant behind both.
    "rx_busy_under_a_book": (
        _writes([64], clients=(0, 1), moves=lambda m, i: m == 0),
        {("rx+drain", "rx book, drain lease")}),
    "rx_busy_under_a_lease": (
        _writes([64, 64], clients=(0, 1), moves=_dataless),
        {("rx+drain", "rx lease, drain lease")}),
    "drain_busy": (_read_then_writes,
                   {("rx+drain", "rx free, drain book")}),
    # The first WRITE warms the SRAM, so the second's rx hold is the 4 KB
    # wire time, which the memo makes its drain last too.
    "tie": (_writes([4096, 4096], depth=1, setup=_tie, moves=_dataless),
            {("rx+drain", "tie")}),
    "jittered_rx": (_writes([64, 1024] * 6, rsocket=1, depth=1,
                            setup=_jitter, moves=_dataless),
                    {("rx+drain", "rx free, drain free")}),
    "unsignaled": (_writes([64, 256, 4096, 64], depth=2, signaled=False,
                           moves=_dataless),
                   {("rx+drain", "rx free, drain free")}),
}


@pytest.mark.parametrize("name", sorted(DATALESS))
def test_dataless_write_service_equals_the_stepped_lane(name):
    """A WRITE that lands no bytes and takes no word lock leases both
    service halves; its last grant books the ACK (unsignaled) or CQE
    (signaled) wake keyed after the later half's end, where the stepped
    lane keys its wait.  Each branch keeps the completion log, region
    bytes, unit counters, busy times and clock of the stepped lane."""
    scenario, branches = DATALESS[name]
    leases = _lane_equals_stepped(scenario)
    assert branches <= leases.keys(), leases


def _locked_and_moving(ctx):
    """An FAA on word 0, then an 8 B data-less WRITE to it (the word's
    device lock is hot) and a 64 B WRITE that moves data."""
    rmr = ctx.register(2, 4096)
    lmr = ctx.register(0, 4096)
    lmr.write(0, bytes(range(64)))
    return [(0, ctx.create_qp(0, 2), [
        WorkRequest(Opcode.FAA, wr_id=0, remote_mr=rmr, remote_offset=0,
                    add=5),
        WorkRequest(Opcode.WRITE, wr_id=1, sgl=[Sge(lmr, 0, 8)],
                    remote_mr=rmr, remote_offset=0, move_data=False),
        WorkRequest(Opcode.WRITE, wr_id=2, sgl=[Sge(lmr, 0, 64)],
                    remote_mr=rmr, remote_offset=64)], 3)]


def test_a_locked_or_data_moving_write_keeps_its_resume_wake(monkeypatch):
    """A WRITE that lands data, or takes a hot word's lock, does work at
    its service end, so it books its cut-through pair and resumes from
    the join as before; both lanes agree."""
    resumed = []
    resume = ExpressState._svc_resume
    monkeypatch.setattr(ExpressState, "_svc_resume", lambda self, op, arg: (
        resumed.append(op.wr.wr_id), resume(self, op, arg)))
    leases = _lane_equals_stepped(_locked_and_moving)
    assert sorted(resumed) == [1, 2]
    assert not {b for b in leases if b[0] == "rx+drain"}, leases


def _tie_rig(seed: int) -> dict:
    """Eight QPs, from two requester machines' two sockets to both ports
    of a third, post the same timed mix in rounds at identical instants:
    32, 64 and 256 B WRITEs, READs and FAAs, 15% unsignaled.  Whether a
    WRITE or READ moves data is a per-QP coin, so mirrored QPs end their
    holds at the same instants through different branches.  Returns
    the completion log (QP index, row), the clock and every region."""
    sim, cluster, ctx = build(machines=3)
    rmrs = [ctx.register(2, 1 << 12, socket=s) for s in (0, 1)]
    log = []

    def client(k, qp, wrs):
        for r in range(0, len(wrs), 4):
            yield max(0.0, r // 4 * 6000.0 - sim.now)
            for ev in [qp.post_send(wr) for wr in wrs[r:r + 4]]:
                log.append((k, _row((yield ev))))

    k = 0
    for m in (0, 1):
        for socket in (0, 1):
            lmr = ctx.register(m, 1 << 12, socket=socket)
            lmr.write(0, bytes([16 * m + socket]) * lmr.size)
            for port in (0, 1):
                qp = ctx.create_qp(m, 2, local_port=socket, remote_port=port)
                rng = random.Random(seed)
                coin = random.Random(1000 * seed + k)
                wrs = []
                for i in range(24):
                    kind = rng.random()
                    signaled = rng.random() >= 0.15
                    if kind < 0.8:
                        size = rng.choice((32, 64, 256))
                        read = kind >= 0.6
                        wrs.append(WorkRequest(
                            Opcode.READ if read else Opcode.WRITE,
                            wr_id=i, sgl=[Sge(lmr, 512 * read, size)],
                            remote_mr=rmrs[port],
                            remote_offset=rng.randrange(0, 1024, 8),
                            signaled=signaled,
                            move_data=coin.random() < 0.5))
                    else:
                        wrs.append(WorkRequest(
                            Opcode.FAA, wr_id=i, remote_mr=rmrs[port],
                            remote_offset=2048 + 8 * rng.randrange(2),
                            add=1, signaled=signaled))
                sim.process(client(k, qp, wrs))
                k += 1
    sim.run()
    return {"log": log, "now": sim.now,
            "mem": [mr.read(0, mr.size) for mr in ctx.regions]}


def test_symmetric_ties_complete_in_the_same_order_on_both_lanes():
    """Mirrored QPs finish data-less WRITEs and READs (leased service
    halves, a leased delivery) at the same instants as data-moving ones
    (booked ends).  Both lanes key the former's completion wake after
    the later hold's end key, so every same-instant completion keeps its
    order.  Six of these 40 seeds reorder a tie when only the lane keys
    it."""
    ties = 0
    for seed in range(40):
        fn = functools.partial(_tie_rig, seed)
        stepped = differential.run(fn, express=False)
        lane = differential.run(fn, express=True)
        assert differential.compare(fn, stepped, lane) is None, seed
        assert lane.value == stepped.value, seed
        stamps = Counter(row[2] for _, row in lane.value["log"])
        ties += sum(n > 1 for n in stamps.values())
    assert ties > 1000


def _word_lock_tie() -> list:
    """Two clients WRITE 8 B to one responder port at the same instant:
    the first-dispatched one to a word an FAA has used (so it takes that
    word's device lock), the other to a word nobody locks.  Returns
    (client, completion instant) in completion order."""
    sim, cluster, ctx = build(machines=3)
    dst = ctx.register(2, 4096)
    done = []

    def client(m, offset):
        w = Worker(ctx, m)
        qp = ctx.create_qp(m, 2)
        src = ctx.register(m, 64)
        if offset:
            yield 5_000.0  # wake at 20 us after the other client
        # Warm the QP context and the translations; word 0 gets a lock.
        yield from w.write(qp, src=src[0:8], dst=dst[256 + offset:264 + offset])
        if not offset:
            yield from w.faa(qp, dst, 0, 1)
        yield 20_000.0 - sim.now
        comp = yield from w.write(qp, src=src[0:8], dst=dst[offset:offset + 8])
        done.append((m, comp.timestamp_ns))

    sim.process(client(0, 0))
    sim.process(client(1, 64))
    sim.run()
    return done


def test_word_lock_grant_ties_like_the_lane():
    """The stepped path takes a free word lock in the arrival dispatch
    and a queued one in the releaser's, as the lane's claim does, so the
    locked WRITE books the rx unit first on both lanes."""
    stepped = differential.run(_word_lock_tie, express=False)
    lane = differential.run(_word_lock_tie, express=True)
    assert differential.compare(_word_lock_tie, stepped, lane) is None
    assert lane.value == stepped.value
    assert [m for m, _ in lane.value] == [0, 1]


def test_stepped_fence_orders_a_shared_responder_port():
    """Two client machines post two-WR doorbells to one responder port: a
    WRITE and a SEND, and a WRITE and an 8 B WRITE, so both WRITEs keep
    equal requester timelines and reach the shared rx unit in the same
    instant, where a lane that mixed with stepped WRs could swap their
    FIFO order.  All 80 posts ride the lane, and the outcome equals the
    stepped reference."""
    def run(express: bool):
        sim, cluster, ctx = differential.run(
            lambda: build(machines=3), express).value
        rmr = ctx.register(2, 1 << 14)
        sending = ctx.create_qp(0, 2)
        plain = ctx.create_qp(1, 2)
        log = []

        def client(qp, machine, gap, base):
            w = Worker(ctx, machine)
            lmr = ctx.register(machine, 4096)
            for i in range(40):
                if qp is sending:
                    second = WorkRequest(Opcode.SEND, wr_id=base + 100 + i,
                                         payload=i, payload_bytes=8)
                else:
                    second = WorkRequest(
                        Opcode.WRITE, wr_id=base + 100 + i,
                        sgl=[Sge(lmr, 0, 8)], remote_mr=rmr,
                        remote_offset=8192 + 8 * (i % 16))
                events = yield from w.post_batch(qp, [WorkRequest(
                    opcode=Opcode.WRITE, wr_id=base + i,
                    sgl=[Sge(lmr, 0, 512)], remote_mr=rmr,
                    remote_offset=512 * (i % 16)), second])
                for ev in events:
                    log.append(_row((yield from w.wait(ev))))
                yield gap

        sim.run(until=sim.all_of([
            sim.process(client(sending, 0, 700.0, 0)),
            sim.process(client(plain, 1, 1_100.0, 1_000))]))
        return log, rmr.read(0, rmr.size), sim.now

    reference = run(express=False)
    with _counted_posts() as posts:
        outcome = run(express=True)
    assert len(posts) == 80
    assert outcome == reference


# ------------------------------------------------- faults on the lane
def _run_lossy(express: bool, seed: int, batch: int = 3,
               make_wr=_random_wr, trace_from=None) -> tuple[dict, int]:
    """A seeded mix of ``make_wr`` WRs on two QPs (inline and cut-through
    WRITEs, READs, atomics, doorbell batches of ``batch``) over a 10%
    lossy requester port, with a 3 ms responder blackhole past the retry
    budget: WRs fail with RETRY_EXC, the WRs behind them flush, and each
    client drains its errored QP and reconnects it.  With ``trace_from``
    (ns), an OpTracer attaches to the context at that instant (0: before
    the first post) and the outcome carries its records; the second QP
    tags its records.  Returns (outcome, events)."""
    sim, ctx, lmr, rmr, qps = _mix_rig(express)
    qps[1].trace_tags = {"client": 1}
    tracer = OpTracer()
    if trace_from == 0:
        ctx.attach_tracer(tracer)
    elif trace_from is not None:
        sim.call_at(trace_from, lambda _ev: ctx.attach_tracer(tracer))
    injector = FaultInjector(sim, rng=make_rng(seed))
    injector.drop_port(qps[0].local_port, 0.1)
    sim.call_at(200_000.0, lambda _ev: injector.blackhole_port(
        qps[0].remote_port, duration_ns=3e6))
    rng = random.Random(seed)
    log: list[tuple] = []
    posts = []

    def client(qp, base):
        w = Worker(ctx, 0)
        i = base
        while i < base + 150:
            if rng.random() < 0.3:
                wrs = [make_wr(rng, lmr, rmr, i + k) for k in range(batch)]
                events = yield from w.post_batch(qp, wrs)
                posts.append(i)
            else:
                wrs = [make_wr(rng, lmr, rmr, i + k) for k in range(2)]
                events = []
                for wr in wrs:
                    events.append((yield from w.post(qp, wr)))
                    posts.append(wr.wr_id)
            i += len(wrs)
            failed = False
            for ev in events:
                comp = yield from w.wait(ev)
                log.append(_row(comp))
                failed |= comp.status is not CompletionStatus.SUCCESS
            if failed and qp.state is QPState.ERR:
                yield ctx.reconnect_qp(qp)

    sim.run(until=sim.all_of([sim.process(client(qp, 1_000 * k))
                              for k, qp in enumerate(qps)]))
    return ({**_outcome(sim, ctx, lmr, rmr, log, posts),
             "records": _records(tracer)}, sim.events_processed)


def _records(tracer) -> list[tuple]:
    """``tracer``'s committed OpRecords in commit order, as tuples of
    their fields (the whole ``stages`` dict, zero-length stages
    included)."""
    return [(r.opcode, r.nbytes, r.start_ns, r.end_ns, r.stages, r.retries,
             r.tags) for r in tracer.records]


@pytest.mark.parametrize("seed", range(3))
def test_lossy_lane_equals_stepped(seed):
    """Loss, retransmission, RETRY_EXC, flushes and reconnects on the lane
    match the stepped lane: completion logs (status and retries
    included), both memories, the clock and every transport counter."""
    stepped, ev_stepped = _run_lossy(False, seed)
    timers = []
    steps = tally.stepped
    orig_retx = ExpressState._retrans_end
    with _counted_posts() as posts, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExpressState, "_retrans_end", lambda self, op, arg: (
            timers.append(op), orig_retx(self, op, arg)))
        express, ev_express = _run_lossy(True, seed)
    assert express == stepped
    # all on the lane
    assert len(posts) == express["posts"] and tally.stepped == steps
    assert timers  # the lane booked _retrans_end transport timers
    statuses = {r[5] for r in express["log"]}
    assert {CompletionStatus.RETRY_EXC_ERR.value,
            CompletionStatus.WR_FLUSH_ERR.value} <= statuses
    transport = express["transport"]
    assert transport["reconnects"] > 0 and transport["fatal_errors"] > 0
    assert transport["flushed_wrs"] > 0
    assert transport["retransmissions"] > 0
    assert any(r[6] for r in express["log"])  # retries reported
    assert ev_express < ev_stepped


def _traced_wr(rng: random.Random, lmr, rmr, i: int) -> WorkRequest:
    """``_random_wr``, or (one in five) an 8 B WRITE to one of the words
    its atomics hammer: once an atomic has claimed the word, the WRITE
    serializes on the word's lock (a lock-release handover)."""
    if rng.random() < 0.2:
        return WorkRequest(
            opcode=Opcode.WRITE, wr_id=i,
            sgl=[Sge(lmr, 8 * rng.randrange(64), 8)], remote_mr=rmr,
            remote_offset=8 * rng.randrange(8), signaled=rng.random() < 0.8)
    return _random_wr(rng, lmr, rmr, i)


#: (seed, tracer attach instant in ns): from the first post, and mid-run
#: with WRs in flight, before the blackhole.
TRACED_RUNS = [(seed, at) for seed in range(3) for at in (0, 150_000.0)]


def test_traced_lane_commits_the_stepped_records():
    """With an OpTracer attached, every post still takes the lane, and the
    lane commits the records the stepped pipeline commits: per WR, in
    commit order, equal opcode, size, start and end, the whole stages
    dict with its zero-length entries, retries and tags.  Across the runs
    the mixes take every stamping branch: READ, WRITE, 4-WR doorbell
    batches (their WRs begin after the chained fetch), CAS and FAA, 8 B
    WRITEs queued on a hammered word's lock, in-order parking,
    retransmissions, RETRY_EXC and flushes."""
    wakes = set()
    records, statuses = [], set()
    for seed, at in TRACED_RUNS:
        stepped, _ = _run_lossy(False, seed, batch=4, make_wr=_traced_wr,
                                trace_from=at)
        with _counted_posts() as posts, lane_wakes() as woken:
            lane, _ = _run_lossy(True, seed, batch=4, make_wr=_traced_wr,
                                 trace_from=at)
        wakes.update(woken)
        assert len(posts) == lane["posts"], (seed, at)
        assert lane == stepped, (seed, at)
        got = lane["records"]
        if at:  # mid-run: only WRs posted after the attach are traced
            assert 0 < len(got) < len(lane["log"]), (seed, at)
            assert min(r[2] for r in got) >= at, (seed, at)
        else:
            assert len(got) == len(lane["log"]), (seed, at)
        records.extend(got)
        statuses.update(r[5] for r in lane["log"])
    assert {("WRITE", "_write_granted"), ("WRITE", "_retrans_end")} <= wakes
    assert any(handler == "_complete" for _, handler in wakes)
    assert {r[0] for r in records} == {
        "write", "read", "compare_and_swap", "fetch_and_add", "send"}
    assert {CompletionStatus.RETRY_EXC_ERR.value,
            CompletionStatus.WR_FLUSH_ERR.value} <= statuses
    assert any(r[5] for r in records) and any(
        r[4].get("retrans") for r in records)
    wqe = [r[4]["wqe_fetch"] for r in records]
    assert 0.0 in wqe and max(wqe) > 0.0  # batch WRs and single posts
    assert {None, (("client", 1),)} == {
        r[6] and tuple(r[6].items()) for r in records}


def test_a_wr_is_traced_from_its_post():
    """Both lanes decide tracing at the same dispatch: a single WR when it
    is posted, a doorbell batch when its chained WQE fetch ends (where
    the stepped batch boots its WRs).  A tracer attached right after both
    posts, in the same dispatch, misses the single WRITE and traces the
    batch, whose records start after the fetch with a zero wqe_fetch."""
    def run(express: bool) -> list[tuple]:
        sim, cluster, ctx = differential.run(
            lambda: build(machines=2), express).value
        lmr, rmr = ctx.register(0, 4096), ctx.register(1, 4096)
        qp = ctx.create_qp(0, 1)
        tracer = OpTracer()

        def write(wr_id):
            return WorkRequest(Opcode.WRITE, wr_id=wr_id, sgl=[Sge(lmr, 0, 8)],
                               remote_mr=rmr, remote_offset=8 * wr_id,
                               move_data=False)

        def client():
            qp.post_send(write(1))
            done = qp.post_send_batch([write(2), write(3)])
            ctx.attach_tracer(tracer)
            yield done[-1]

        sim.run(until=sim.process(client()))
        return _records(tracer)

    stepped = run(express=False)
    assert run(express=True) == stepped
    assert [r[4]["wqe_fetch"] for r in stepped] == [0.0, 0.0]
    assert stepped[0][2] == stepped[1][2] > 0.0


# ------------------------------------------- completed ops are acyclic
def _post_all(w, qps, posts):
    """One client posting ``posts`` ((qp index, WR or WR list), ...) back
    to back, then waiting for every completion."""
    def client():
        events = []
        for i, wrs in posts:
            if isinstance(wrs, list):
                events.extend((yield from w.post_batch(qps[i], wrs)))
            else:
                events.append((yield from w.post(qps[i], wrs)))
        for ev in events:
            comp = yield from w.wait(ev)
            assert comp.status is CompletionStatus.SUCCESS, comp

    return client()


def _write(lmr, rmr, size, roff=0):
    return WorkRequest(opcode=Opcode.WRITE, sgl=[Sge(lmr, 0, size)],
                       remote_mr=rmr, remote_offset=roff)


def _read(lmr, rmr, size):
    return WorkRequest(opcode=Opcode.READ, sgl=[Sge(lmr, 0, size)],
                       remote_mr=rmr, remote_offset=0)


def _faa(rmr):
    return WorkRequest(opcode=Opcode.FAA, remote_mr=rmr, remote_offset=0,
                       add=1)


#: Op shape -> (posts, the (opcode, woken handler) it must reach, rig).
#: The witness proves the shape took its intended branch of the lane.  A
#: wake the engine runs in place still calls its handler, so every wake
#: shows.  The rig is ``None`` (two machines on one switch), ``lossy``
#: (30% loss on the requester port) or a leaf-spine rig of 8 machines
#: whose QPs run from machine 0 to machine 4 across a spine (see
#: ``_shape_run``).
_SHAPES = {
    "read": (lambda lm, rm: [(0, _read(lm, rm, 64))],
             "READ", "_deliver_end", None),
    "inline_write": (lambda lm, rm: [(0, _write(lm, rm, 64))],
                     "WRITE", "_svc_resume", None),
    "cut_through_write": (lambda lm, rm: [(0, _write(lm, rm, 4096))],
                          "WRITE", "_exec_done", None),
    "doorbell_batch": (lambda lm, rm: [(0, [
        _write(lm, rm, 64), _read(lm, rm, 64), _write(lm, rm, 1024),
        _faa(rm)])], "FAA", "_atomic_end", None),
    "faa": (lambda lm, rm: [(0, _faa(rm))], "FAA", "_atomic_end", None),
    # FAAs claim the word's lock; the 8 B WRITE to it queues behind.
    "write_on_claimed_word_lock": (lambda lm, rm: [
        (0, _faa(rm)), (1, _faa(rm)), (1, _faa(rm)), (0, _write(lm, rm, 8))],
        "WRITE", "_write_granted", None),
    # The small WRITE's tail beats the big READ ahead of it: it parks.
    "parked_in_order": (lambda lm, rm: [
        (0, _read(lm, rm, 4096)), (0, _write(lm, rm, 8, roff=64))],
        "WRITE", "_complete", None),
    # An empty SEND: its 1 B landing DMA, then the response wire.
    "send": (lambda lm, rm: [(0, WorkRequest(Opcode.SEND, payload="x"))],
             "SEND", "_tail_end", None),
    # 30% loss on the requester port: WRITEs wait out transport timers.
    "write_on_lossy_port": (lambda lm, rm: [
        (0, _write(lm, rm, 64)) for _ in range(8)],
        "WRITE", "_retrans_end", "lossy"),
    # Queued hops both ways; the READ's response leaves at its hold end.
    "queued_read": (lambda lm, rm: [(0, _read(lm, rm, 64))],
                    "READ", "_back_hop", "leaf_spine"),
    # The QP's spine uplink is down: the request dies there, and the
    # retransmission's re-salted flow takes the other spine.
    "queued_dead_uplink": (lambda lm, rm: [(0, _write(lm, rm, 64))],
                           "WRITE", "_fwd_drop", "dead_uplink"),
    # The reply's spine uplink is down: the ACK stops at that hop.
    "queued_dead_reply": (lambda lm, rm: [(0, _faa(rm))],
                          "FAA", "_back_drop", "dead_reply"),
    # A cut DCQCN rate paces the attempt: its tx hold waits a wake.
    "paced": (lambda lm, rm: [(0, _write(lm, rm, 4096)) for _ in range(4)],
              "WRITE", "_attempt", "paced"),
}


def _shape_run(shape: str) -> tuple:
    """Post ``shape``'s WRs on a fresh rig and run them to completion;
    returns (sim, cluster)."""
    from repro.hw import HardwareParams

    make_posts, _, _, rig = _SHAPES[shape]
    if rig is None or rig == "lossy":
        sim, cluster, ctx = build(machines=2)
        dst = 1
    else:
        sim, cluster, ctx = build(params=HardwareParams(
            machines=8, dcqcn_enabled=rig == "paced"), topology="leaf-spine")
        dst = 4
    lmr = ctx.register(0, 8192)
    rmr = ctx.register(dst, 8192)
    qps = [ctx.create_qp(0, dst), ctx.create_qp(0, dst)]
    fabric, injector = cluster.fabric, FaultInjector(sim, rng=make_rng(1))
    if rig == "lossy":
        injector.drop_port(cluster[0].port(0), prob=0.3)
    elif rig == "dead_uplink":
        injector.link_down(fabric.leaf_up[0][qps[0]._route.via[0]])
    elif rig == "dead_reply":
        injector.link_down(fabric.leaf_up[1][qps[0]._route_back.via[0]])
    elif rig == "paced":
        cluster[0].port(0).dcqcn.on_ecn(0.0)
    w = Worker(ctx, 0)
    sim.run(until=sim.process(_post_all(w, qps, make_posts(lmr, rmr))))
    return sim, cluster


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_completed_op_is_freed_by_refcount(shape):
    """Every per-op object (``ExpressOp`` and its wake partials, stepped
    ``Process`` generators) is acyclic once its op completes, so it is
    freed by refcount while ``run()`` pauses the cyclic collector."""
    _, opcode, handler, rig = _SHAPES[shape]
    rigs = []
    with lane_wakes() as wakes:
        garbage = cyclic_garbage(lambda: rigs.append(_shape_run(shape)))
    assert (opcode, handler) in wakes, sorted(set(wakes))
    sim, cluster = rigs[0]
    assert (cluster[0].port(0).packets_dropped > 0) == (rig == "lossy")
    assert garbage["ExpressOp"] == 0 and garbage["Process"] == 0, garbage


def test_the_shapes_wake_every_booked_handler():
    """Together the ``_SHAPES`` runs wake every handler a lane booking
    names, so a handler that no shape reaches fails here."""
    with lane_wakes() as wakes:
        for shape in _SHAPES:
            _shape_run(shape)
    assert {handler for _, handler in wakes} == BOOKED


def test_closed_loop_retained_bytes_flat_in_run_length():
    """Peak memory must not grow with run length.  A closed loop on the
    lane that reuses one FAA word holds no per-op state (each
    ``Worker.wait`` reaps its CQE, with no poll of its own), so after 4N
    ops it retains what it retained after N.  Measured: +32 B between
    N=500 and 4N (+934 KB, ~1.9 KB per op, while finished ops were
    self-cycles kept until run() returned).  The bound is that figure
    with room for allocator noise."""
    import tracemalloc

    n = 500
    bound = 1024
    sim, cluster, ctx = build(machines=2)
    rmr = ctx.register(1, 4096)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)

    def client(k):
        for i in range(k):
            yield from w.faa(qp, rmr, 0, 1, wr_id=i)

    with _counted_posts() as posts:  # warm pools, caches, locks
        sim.run(until=sim.process(client(64)))
    assert len(posts) == 64  # the loop rides the lane
    tracemalloc.start()
    try:
        sim.run(until=sim.process(client(n)))
        after_n = tracemalloc.get_traced_memory()[0]
        sim.run(until=sim.process(client(3 * n)))
        after_4n = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert qp.completed == 64 + 4 * n
    assert len(qp.cq) == 0 and qp.cq.consumed == qp.cq.produced
    assert after_4n - after_n <= bound, (after_n, after_4n)


def test_lane_posts_count_no_step_reason():
    """A lane post is not counted as a stepped WR (only the reference
    counts them)."""
    sim, cluster, ctx = build(machines=2)
    lmr, rmr = ctx.register(0, 4096), ctx.register(1, 4096)
    qp, w = ctx.create_qp(0, 1), Worker(ctx, 0)
    before = tally.stepped

    def client():
        for i in range(8):
            yield from w.write(qp, src=lmr[0:8], dst=rmr[0:8],
                               move_data=False, wr_id=i)

    with _counted_posts() as posts:
        sim.run(until=sim.process(client()))
    assert len(posts) == 8
    assert tally.stepped == before
