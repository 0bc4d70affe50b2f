"""The completion-queue reap contract (Section II-A's ``poll_cq``).

Each CQE is reaped exactly once: by ``CompletionQueue.poll``, by a
``cq.wait()`` getter, or by the ``Worker.wait`` that pays ``cpu_poll_ns``
for it.  A reaped CQE leaves the queue and counts in ``consumed``; the
others stay, in FIFO order.  A bare ``yield done`` reaps nothing.
"""

import pytest

from repro import build
from repro.check import differential
from repro.hw.params import ServiceConfig, TenantSpec
from repro.tenancy import ServicePlane
from repro.verbs import CompletionQueue, Opcode, Sge, Worker, WorkRequest
from repro.verbs.types import CompletionStatus


@pytest.fixture
def rig():
    sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 1 << 16)
    rmr = ctx.register(1, 1 << 16)
    qp = ctx.create_qp(0, 1)
    return sim, ctx, lmr, rmr, qp, Worker(ctx, 0)


def _write(lmr, rmr, wr_id, off=0, signaled=True):
    return WorkRequest(Opcode.WRITE, wr_id=wr_id, sgl=[Sge(lmr, off, 8)],
                       remote_mr=rmr, remote_offset=off, move_data=False,
                       signaled=signaled)


def test_bare_yield_leaves_the_cqe_pollable(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    got = {}

    def client():
        ev = yield from w.post(qp, _write(lmr, rmr, 5))
        got["comp"] = yield ev

    sim.run(until=sim.process(client()))
    assert (qp.cq.produced, qp.cq.consumed, len(qp.cq)) == (1, 0, 1)
    assert qp.cq.poll() is got["comp"]
    assert (qp.cq.consumed, len(qp.cq)) == (1, 0)
    assert qp.cq.poll() is None


def test_worker_wait_reaps_its_cqe_once(rig):
    sim, ctx, lmr, rmr, qp, w = rig

    def client():
        for i in range(3):
            yield from w.execute(qp, _write(lmr, rmr, i))
        yield from w.execute(qp, _write(lmr, rmr, 9, signaled=False))

    sim.run(until=sim.process(client()))
    assert (qp.cq.produced, qp.cq.consumed, len(qp.cq)) == (3, 3, 0)
    assert not sim.cqes


def test_getter_and_worker_wait_count_one_cqe_once(rig):
    """A pending ``cq.wait()`` takes the CQE at deposit; the Worker.wait
    on the same WR then finds nothing left to reap."""
    sim, ctx, lmr, rmr, qp, w = rig
    got = []

    def reaper():
        got.append((yield qp.cq.wait()))

    def client():
        yield 100.0
        got.append((yield from w.execute(qp, _write(lmr, rmr, 3))))

    sim.process(reaper())
    sim.run(until=sim.process(client()))
    sim.run()
    assert got[0] is got[1]
    assert (qp.cq.produced, qp.cq.consumed, len(qp.cq)) == (1, 1, 0)


def test_worker_wait_first_leaves_nothing_for_a_later_getter(rig):
    sim, ctx, lmr, rmr, qp, w = rig

    def client():
        yield from w.execute(qp, _write(lmr, rmr, 3))

    sim.run(until=sim.process(client()))
    late = qp.cq.wait()
    sim.run()
    assert not late.triggered
    assert (qp.cq.produced, qp.cq.consumed, len(qp.cq)) == (1, 1, 0)


def _shared_cq_run(reap_wr_ids):
    """Four WRs on two QPs sharing one CQ, waited with bare yields; then a
    Worker.wait on each WR in ``reap_wr_ids``.  Returns what polls next."""
    sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 1 << 16)
    rmr = ctx.register(1, 1 << 16)
    shared = CompletionQueue(sim, name="shared")
    qp_a = ctx.create_qp(0, 1, cq=shared)
    qp_b = ctx.create_qp(0, 1, local_port=1, cq=shared)
    w0, w1 = Worker(ctx, 0), Worker(ctx, 0, socket=1)
    events = {}

    def client():
        for i, (w, qp) in enumerate(((w0, qp_a), (w1, qp_b),
                                     (w0, qp_a), (w1, qp_b))):
            events[i] = yield from w.post(qp, _write(lmr, rmr, i, off=8 * i))
        for ev in events.values():
            yield ev
        for i in reap_wr_ids:
            yield from w0.wait(events[i])

    sim.run(until=sim.process(client()))
    assert shared.produced == 4
    assert shared.consumed == len(reap_wr_ids)
    left = []
    while (cqe := shared.poll()) is not None:
        left.append(cqe.wr_id)
    assert shared.consumed == 4 and not sim.cqes
    return left


def test_shared_cq_reaped_out_of_order_keeps_fifo():
    order = _shared_cq_run(())
    assert sorted(order) == [0, 1, 2, 3]
    middle = [order[2], order[1]]  # reaped in the reverse of FIFO order
    left = _shared_cq_run(middle)
    assert left == [order[0], order[3]]


def test_a_freed_queue_leaves_no_index_entry():
    """The index holds exactly the queued CQEs: a queue dropped with CQEs
    still queued takes their entries with it."""
    sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 1 << 16)
    rmr = ctx.register(1, 1 << 16)
    cq = CompletionQueue(sim, name="dropped")
    qp = ctx.create_qp(0, 1, cq=cq)
    w = Worker(ctx, 0)

    def client():
        for i in range(3):
            yield (yield from w.post(qp, _write(lmr, rmr, i, off=8 * i)))

    sim.run(until=sim.process(client()))
    assert len(cq) == 3 and len(sim.cqes) == 3
    qp.cq = cq = None
    assert not sim.cqes


def test_flushed_wr_on_an_err_qp_is_reaped(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    qp._enter_error()
    got = {}

    def client():
        got["waited"] = yield from w.execute(qp, _write(lmr, rmr, 1))
        ev = yield from w.post(qp, _write(lmr, rmr, 2))
        got["bare"] = yield ev

    sim.run(until=sim.process(client()))
    assert got["waited"].status is CompletionStatus.WR_FLUSH_ERR
    assert (qp.cq.produced, qp.cq.consumed, len(qp.cq)) == (2, 1, 1)
    assert qp.cq.poll() is got["bare"]


def test_tenanted_op_is_reaped_and_a_rejected_one_never_queues():
    """The plane's relay event carries the QP's own Completion, so the
    Worker.wait on it reaps the CQE; a shed op completes REJECTED without
    reaching the hardware, so it never enters a CQ."""
    sim, cluster, ctx = build(machines=3)
    plane = ServicePlane(ctx, ServiceConfig(
        tenants=(TenantSpec("t", max_inflight=2, max_queue_depth=64),)))
    lmr = ctx.register(1, 4096)
    rmr = ctx.register(0, 4096)
    qp = plane.connections.lease("t", 1, 0)
    w = Worker(ctx, 1)
    comps = []

    def client():
        events = []
        for i in range(3):
            events.append((yield from w.post(qp, _write(lmr, rmr, i))))
        for ev in events:
            comps.append((yield from w.wait(ev)))

    sim.run(until=sim.process(client()))
    statuses = [c.status for c in comps]
    assert statuses.count(CompletionStatus.SUCCESS) == 2
    assert statuses.count(CompletionStatus.REJECTED) == 1
    assert (qp.cq.produced, qp.cq.consumed, len(qp.cq)) == (2, 2, 0)
    assert not sim.cqes


def _lane_mix(express: bool) -> tuple:
    sim, cluster, ctx = differential.run(
        lambda: build(machines=2), express).value
    assert (sim.express is not None) == express
    lmr = ctx.register(0, 1 << 16)
    rmr = ctx.register(1, 1 << 16)
    qps = [ctx.create_qp(0, 1), ctx.create_qp(0, 1, local_port=1)]
    w = Worker(ctx, 0)
    got = []

    def reaper():
        got.append((yield qps[1].cq.wait()).wr_id)

    def client():
        for i in range(12):
            qp = qps[i % 2]
            wr = _write(lmr, rmr, i, off=8 * i, signaled=i % 5 != 4)
            if i % 3 == 0:
                yield (yield from w.post(qp, wr))      # bare: stays queued
            elif i % 3 == 1:
                yield from w.execute(qp, wr)           # reaped by the wait
            else:
                ev = yield from w.post(qp, wr)
                yield from w.wait(ev)
        qps[0].cq.poll()

    sim.process(reaper())
    sim.run(until=sim.process(client()))
    return tuple((qp.cq.produced, qp.cq.consumed, len(qp.cq)) for qp in qps
                 ) + (tuple(got), sim.now)


def test_lanes_agree_on_cq_counts():
    stepped = _lane_mix(express=False)
    express = _lane_mix(express=True)
    assert stepped == express
    assert stepped[0][2] > 0  # bare-yield CQEs stayed queued
