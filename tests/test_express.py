"""Express-lane equivalence (docs/PERFORMANCE.md, "Express lane").

The closed-form WR timeline must be *bit-identical* to the stepped
generator: same completion timestamps, same returned values, same
payload bytes in both memory regions, same final clock — while
dispatching strictly fewer events.  And flipping lanes mid-run (fault
injector, tracer, sanitizer, a SEND) must stay bit-identical to the
all-stepped reference: both lanes queue on the same hardware Resources.
"""

import contextlib
import random

import pytest

from repro import build
from repro.check import Sanitizer
from repro.hw.faults import FaultInjector
from repro.sim import make_rng
from repro.verbs import Worker
from repro.verbs.trace import OpTracer
from repro.verbs.types import CompletionStatus, Opcode, Sge, WorkRequest
from tests.gc_census import cyclic_garbage

#: Transfer sizes straddling max_inline_bytes=220 so the mix exercises
#: both the inline WQE path and the separate payload-DMA path.
SIZES = (8, 32, 64, 220, 221, 256, 1024, 4096)


def _random_wr(rng: random.Random, lmr, rmr, i: int) -> WorkRequest:
    kind = rng.choice(("write", "write", "read", "read", "cas", "faa"))
    signaled = rng.random() < 0.8
    if kind in ("write", "read"):
        size = rng.choice(SIZES)
        loff = rng.randrange(0, lmr.size - size)
        roff = rng.randrange(0, rmr.size - size)
        return WorkRequest(
            opcode=Opcode.WRITE if kind == "write" else Opcode.READ,
            wr_id=i, sgl=[Sge(lmr, loff, size)], remote_mr=rmr,
            remote_offset=roff, signaled=signaled)
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
            comp.byte_len, comp.status.value)


def _run_mix(seed: int, express: bool, n_ops: int = 120, depth: int = 6,
             batch: int = 0, poison=None) -> tuple[dict, int, object]:
    """Drive a seeded random op mix; returns (comparable outcome,
    events dispatched, the sim's express state or None)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_EXPRESS", "1" if express else "0")
        sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 1 << 15)
    rmr = ctx.register(1, 1 << 15)
    lmr.write(0, bytes(range(256)) * (lmr.size // 256))
    qps = [ctx.create_qp(0, 1), ctx.create_qp(0, 1)]
    w = Worker(ctx, 0)
    rng = random.Random(seed)
    log: list[tuple] = []

    def client():
        inflight = []
        i = 0
        fired = poison is None
        while i < n_ops:
            if not fired and i >= n_ops // 2:
                fired = True
                poison(sim, ctx)
            qp = qps[rng.randrange(2)]
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

    p = sim.process(client())
    sim.run(until=p)
    outcome = {
        "log": log,
        "rmem": rmr.read(0, rmr.size),
        "lmem": lmr.read(0, lmr.size),
        "now": sim.now,
    }
    return outcome, sim.events_processed, sim.express


# ------------------------------------------------------ the property test
@pytest.mark.parametrize("seed", range(6))
def test_express_equals_stepped_random_mix(seed):
    stepped, ev_stepped, exp = _run_mix(seed, express=False)
    assert exp is None  # REPRO_EXPRESS=0 never attaches the lane
    express, ev_express, exp = _run_mix(seed, express=True)
    assert exp is not None and exp.on  # the lane engaged and stayed sunny
    assert express == stepped
    assert ev_express < ev_stepped  # fewer events is the lane's point


@pytest.mark.parametrize("seed", range(3))
def test_express_equals_stepped_batched_mix(seed):
    """Doorbell-batched posts ride the lane too (shared WQE fetch, mates
    chained off the lead) and must stay bit-identical."""
    stepped, ev_stepped, _ = _run_mix(seed, express=False, batch=4)
    express, ev_express, exp = _run_mix(seed, express=True, batch=4)
    assert exp is not None and exp.on
    assert express == stepped
    assert ev_express < ev_stepped


# ------------------------------------------------------ mid-run lane flips
#: (seed, doorbell batch) pairs every flip trigger is checked over.
FLIP_RUNS = [(seed, batch) for seed in range(10) for batch in (0, 3)]


def _inject_later(sim, ctx):
    """Build an injector now; slow the responder port 20 us later, once
    the express ops in flight at construction have drained."""
    injector = FaultInjector(sim)
    port = ctx.qps[0].remote_port
    sim.call_at(sim.now + 20_000.0,
                lambda _ev: injector.slow_port(port, 2.0))


def _send_one(sim, ctx):
    """Post one SEND on the mix's first QP (it steps; the peer's recv
    Store absorbs it)."""
    ctx.qps[0].post_send(WorkRequest(
        opcode=Opcode.SEND, wr_id=10_000, payload="mid-run",
        payload_bytes=64, signaled=False))


@contextlib.contextmanager
def _counted_posts():
    """Yield a list that gains one entry per express-lane post."""
    from repro.verbs.express import ExpressState

    posts = []
    orig_post, orig_batch = ExpressState.post, ExpressState.post_batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExpressState, "post", lambda self, *a, **k: (
            posts.append(1), orig_post(self, *a, **k))[1])
        mp.setattr(ExpressState, "post_batch", lambda self, *a, **k: (
            posts.append(1), orig_batch(self, *a, **k))[1])
        yield posts


def _check_flip(trigger, poisoned=None, steps_after=True):
    """Fire ``trigger`` at op 60 on both lanes over FLIP_RUNS.

    Every run must match the all-stepped reference run with the same
    trigger: completion log, both memories and the final clock.  Express
    ops in flight at the flip drain on their booked timelines while the
    stepped WRs posted after it queue behind them on the same units.
    """
    diverged = []
    resumed = 0
    with _counted_posts() as posts:
        for seed, batch in FLIP_RUNS:
            at = {}

            def fire(sim, ctx):
                at["n"] = len(posts)
                trigger(sim, ctx)

            reference, _, _ = _run_mix(seed, express=False, batch=batch,
                                       poison=trigger)
            del posts[:]
            outcome, _, exp = _run_mix(seed, express=True, batch=batch,
                                       poison=fire)
            assert 0 < at["n"], "the lane never ran before the flip"
            if steps_after:
                assert len(posts) == at["n"], "express post after the flip"
            else:
                resumed += len(posts) > at["n"]
            assert exp.poisoned == poisoned
            assert exp.on == (poisoned is None)
            log = outcome["log"]
            assert sorted(r[0] for r in log) == list(range(len(log)))
            assert len(log) >= 120
            assert {r[5] for r in log} == {CompletionStatus.SUCCESS.value}
            if outcome != reference:
                diverged.append((seed, batch))
    assert not diverged, (
        f"{len(diverged)} of {len(FLIP_RUNS)} runs diverged from the "
        f"all-stepped reference: {diverged}")
    return resumed


def test_fault_injector_mid_run_flips_to_stepped():
    """The injector is the one run-wide poison: no express post after it,
    so a fault armed later finds only stepped WRs (without the poison,
    7 of 10 seeds diverge)."""
    _check_flip(_inject_later, poisoned="fault-injector")


def test_tracer_mid_run_flips_to_stepped():
    """Attaching a tracer poisons nothing: every QP is traced, so every
    later post fails the per-post predicate and steps."""
    _check_flip(lambda sim, ctx: ctx.attach_tracer(OpTracer()))


def test_sanitizer_blocks_express_posts():
    """sim.check is consulted per post: installing a sanitizer mid-run
    moves new posts to the stepped path (where checker hooks fire) even
    though the lane itself is merely bypassed, not poisoned."""
    sanitizers = []
    _check_flip(lambda sim, ctx: sanitizers.append(Sanitizer(sim)))
    # Installed mid-run, the checkers see completions of WRs posted
    # before them; both lanes must report exactly the same findings.
    reports = [[(v.checker, v.message) for v in san.finalize().violations]
               for san in sanitizers]
    assert reports[0::2] == reports[1::2]


def test_send_mid_run_steps_alone():
    """A SEND steps but poisons nothing: once the stepped WRs behind it
    drain, one-sided posts ride the lane again, mixed with stepped ones."""
    assert _check_flip(_send_one, steps_after=False) > 0
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
    assert sim.express.on and len(posts) == 1 and qp.completed == 2


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


#: Op shape -> (posts, the (opcode, phase) wake it must reach, lossy).
#: The phase proves the shape took its intended branch of the lane.
_SHAPES = {
    "read": (lambda lm, rm: [(0, _read(lm, rm, 64))], "READ", "P_DLV", False),
    "inline_write": (lambda lm, rm: [(0, _write(lm, rm, 64))],
                     "WRITE", "P_SVC_R", False),
    "cut_through_write": (lambda lm, rm: [(0, _write(lm, rm, 4096))],
                          "WRITE", "P_EXEC_R", False),
    "doorbell_batch": (lambda lm, rm: [(0, [
        _write(lm, rm, 64), _read(lm, rm, 64), _write(lm, rm, 1024),
        _faa(rm)])], "FAA", "P_SVC", False),
    "faa": (lambda lm, rm: [(0, _faa(rm))], "FAA", "P_SVC", False),
    # FAAs claim the word's lock; the 8 B WRITE to it queues behind.
    "write_on_claimed_word_lock": (lambda lm, rm: [
        (0, _faa(rm)), (1, _faa(rm)), (1, _faa(rm)), (0, _write(lm, rm, 8))],
        "WRITE", "P_LOCK", False),
    # The small WRITE's tail beats the big READ ahead of it: it parks.
    "parked_in_order": (lambda lm, rm: [
        (0, _read(lm, rm, 4096)), (0, _write(lm, rm, 8, roff=64))],
        "WRITE", "P_PARK", False),
    "stepped_write_on_lossy_port": (lambda lm, rm: [
        (0, _write(lm, rm, 64)) for _ in range(8)], None, None, True),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_completed_op_is_freed_by_refcount(shape):
    """Every per-op object (``ExpressOp`` and its wake partials, stepped
    ``Process`` generators) is acyclic once its op completes, so it is
    freed by refcount while ``run()`` pauses the cyclic collector."""
    from repro.verbs import express
    from repro.verbs.express import ExpressState

    make_posts, opcode, phase, lossy = _SHAPES[shape]
    names = {v: k for k, v in vars(express).items() if k.startswith("P_")}
    wakes = set()
    dropped = []
    orig_wake = ExpressState._on_wake

    def recording_wake(self, op, ev):
        wakes.add((op.opcode.name, names[op.phase]))
        orig_wake(self, op, ev)

    def scenario():
        sim, cluster, ctx = build(machines=2)
        if lossy:
            FaultInjector(sim, rng=make_rng(1)).drop_port(
                cluster[0].port(0), prob=0.3)
        lmr = ctx.register(0, 8192)
        rmr = ctx.register(1, 8192)
        qps = [ctx.create_qp(0, 1), ctx.create_qp(0, 1)]
        w = Worker(ctx, 0)
        sim.run(until=sim.process(
            _post_all(w, qps, make_posts(lmr, rmr))))
        dropped.append(cluster[0].port(0).packets_dropped)
        return sim, cluster

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExpressState, "_on_wake", recording_wake)
        garbage = cyclic_garbage(scenario)
    if lossy:
        # The injector retired the lane, and the port lost packets:
        # the WRITEs stepped through retransmission.
        assert not wakes and dropped[0] > 0
    else:
        assert (opcode, phase) in wakes, sorted(wakes)
    assert garbage["ExpressOp"] == 0 and garbage["Process"] == 0, garbage


def test_closed_loop_retained_bytes_flat_in_run_length():
    """Peak memory must not grow with run length.  A closed loop on the
    lane that polls its CQ and reuses one FAA word holds no per-op state,
    so after 4N ops it retains what it retained after N.  Measured:
    +32 B between N=500 and 4N (+934 KB, ~1.9 KB per op, while finished
    ops were self-cycles kept until run() returned).  The bound is that
    figure with room for allocator noise."""
    import tracemalloc

    n = 500
    bound = 1024
    sim, cluster, ctx = build(machines=2)
    rmr = ctx.register(1, 4096)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)

    def client(k):
        for i in range(k):
            comp = yield from w.faa(qp, rmr, 0, 1, wr_id=i)
            assert qp.cq.poll() is comp

    sim.run(until=sim.process(client(64)))  # warm pools, caches, locks
    tracemalloc.start()
    try:
        sim.run(until=sim.process(client(n)))
        after_n = tracemalloc.get_traced_memory()[0]
        sim.run(until=sim.process(client(3 * n)))
        after_4n = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sim.express.on and qp.completed == 64 + 4 * n
    assert after_4n - after_n <= bound, (after_n, after_4n)
