"""Tests for the reliable-transport layer: loss faults, RC
retransmission with exponential backoff, QP error states and flushes,
and reconnect/failover recovery."""

import pytest

from repro import build
from repro.check import differential
from repro.hw import FaultInjector, HardwareParams
from repro.sim import make_rng
from repro.verbs import (
    CompletionStatus,
    Opcode,
    OpTracer,
    QPState,
    Sge,
    Worker,
    WorkRequest,
)


def _rig(params=None, machines=2):
    sim, cluster, ctx = build(machines=machines, params=params)
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 4096)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    return sim, ctx, qp, w, lmr, rmr


def _one_write(sim, w, qp, lmr, rmr, nbytes=64):
    box = {}

    def client():
        box["comp"] = yield from w.write(
            qp, src=lmr[0:nbytes], dst=rmr[0:nbytes], move_data=False)

    sim.run(until=sim.process(client()))
    return box["comp"]


# ---------------------------------------------------------------- loss faults
def test_packet_lost_never_draws_rng_without_faults():
    sim, cluster, ctx = build(machines=2)
    port = cluster[0].port(0)
    assert not port.lossy
    assert port.loss_rng is None
    for _ in range(100):
        assert not port.packet_lost()
    assert port.packets_dropped == 0


def test_drop_port_validates_and_heals():
    sim, cluster, ctx = build(machines=2)
    injector = FaultInjector(sim, rng=make_rng(3))
    port = cluster[0].port(0)
    with pytest.raises(ValueError):
        injector.drop_port(port, prob=0.0)
    with pytest.raises(ValueError):
        injector.drop_port(port, prob=1.5)
    with pytest.raises(ValueError):
        FaultInjector(sim).drop_port(port, prob=0.5)  # rng required
    injector.drop_port(port, prob=0.5, duration_ns=1_000)
    assert port.lossy and port.loss_prob == 0.5
    sim.run(until=2_000)
    assert not port.lossy and port.loss_rng is None
    assert injector.afflicted_count == 0


def test_blackhole_heals_on_schedule_leaving_drop():
    sim, cluster, ctx = build(machines=2)
    injector = FaultInjector(sim, rng=make_rng(3))
    port = cluster[0].port(0)
    injector.drop_port(port, prob=0.01)
    injector.blackhole_port(port, duration_ns=5_000)
    assert not port.link_up
    assert port.packet_lost()            # blackhole loses everything
    sim.run(until=10_000)
    assert port.link_up                  # the window healed itself...
    assert port.loss_prob == 0.01        # ...the i.i.d. drop did not
    assert injector.afflicted_count == 1


def test_port_down_up_and_overlap_with_blackhole():
    sim, cluster, ctx = build(machines=2)
    injector = FaultInjector(sim)
    port = cluster[0].port(0)
    injector.port_down(port)
    injector.blackhole_port(port, duration_ns=1_000)
    sim.run(until=2_000)
    assert not port.link_up              # blackhole healed, down remains
    injector.port_up(port)
    assert port.link_up
    assert injector.afflicted_count == 0


# ------------------------------------------------------------- retransmission
def test_single_loss_retries_and_succeeds():
    params = HardwareParams(retry_cnt=7)
    sim, ctx, qp, w, lmr, rmr = _rig(params)
    injector = FaultInjector(sim, rng=make_rng(1))

    # Probability 1 for exactly the first attempt, then heal: one loss,
    # one retransmission, then success.
    injector.drop_port(qp.local_port, prob=1.0,
                       duration_ns=params.retrans_timeout_ns / 2)
    comp = _one_write(sim, w, qp, lmr, rmr)
    assert comp.ok
    assert comp.retries == 1
    assert qp.retransmissions == 1
    assert qp.state is QPState.RTS


def test_backoff_sequence_is_truncated_exponential():
    """The retrans trace stage accumulates exactly t, 2t, ... capped, as
    the express lane stamps it (a traced WR keeps the lane)."""
    from repro.verbs.qp import tally

    params = HardwareParams(retrans_timeout_ns=1_000.0, retrans_backoff=2.0,
                            retrans_timeout_cap_ns=3_000.0, retry_cnt=2)
    sim, ctx, qp, w, lmr, rmr = differential.run(
        lambda: _rig(params), express=True).value
    tracer = OpTracer()
    qp.tracer = tracer
    FaultInjector(sim).port_down(qp.local_port)
    stepped = dict(tally.stepped)

    # The timer sequence itself: t, 2t, then capped at 3t forever.
    assert [qp._retrans_wait_ns(n) for n in range(1, 6)] == \
        [1_000, 2_000, 3_000, 3_000, 3_000]

    comp = _one_write(sim, w, qp, lmr, rmr)
    assert comp.status is CompletionStatus.RETRY_EXC_ERR
    assert comp.retries == params.retry_cnt
    rec = tracer.records[-1]
    # The retrans stage charges the three waits (1000 + 2000 + 3000) plus
    # the wasted execution-unit occupancy of the three lost attempts —
    # strictly more than the pure timer sum, but well under one extra t
    # per attempt at 64 B.
    assert 6_000 < rec.stages["retrans"] < 6_000 + 3 * 1_000
    assert rec.retries == params.retry_cnt
    assert tally.stepped == stepped  # the WR rode the lane


def test_lossy_timeline_is_deterministic_under_seed():
    def timeline(seed):
        params = HardwareParams()
        sim, ctx, qp, w, lmr, rmr = _rig(params)
        FaultInjector(sim, rng=make_rng(seed)).drop_port(
            qp.local_port, prob=0.3)
        stamps = []

        def client():
            for k in range(40):
                comp = yield from w.write(
                    qp, src=lmr[0:64], dst=rmr[0:64], move_data=False)
                stamps.append((comp.timestamp_ns, comp.status.value,
                               comp.retries))
                if qp.state is QPState.ERR:
                    while qp.outstanding:
                        yield sim.timeout(params.retrans_timeout_ns)
                    yield ctx.reconnect_qp(qp)

        sim.run(until=sim.process(client()))
        return stamps

    a, b = timeline(11), timeline(11)
    assert a == b
    assert any(r for _, _, r in a)       # the seed does inject losses
    assert timeline(12) != a             # and the schedule follows the rng


def test_retry_exhaustion_enters_error_state():
    params = HardwareParams(retry_cnt=3)
    sim, ctx, qp, w, lmr, rmr = _rig(params)
    FaultInjector(sim).port_down(qp.local_port)
    comp = _one_write(sim, w, qp, lmr, rmr)
    assert comp.status is CompletionStatus.RETRY_EXC_ERR
    assert not comp.ok
    assert comp.byte_len == 0
    assert qp.state is QPState.ERR
    assert qp.fatal_errors == 1
    assert qp.retransmissions == params.retry_cnt


def test_remote_port_loss_is_equivalent():
    """Loss is sampled at both endpoints: a dead responder port retries
    and exhausts exactly like a dead requester port."""
    params = HardwareParams(retry_cnt=2)
    sim, ctx, qp, w, lmr, rmr = _rig(params)
    FaultInjector(sim).port_down(qp.remote_port)
    comp = _one_write(sim, w, qp, lmr, rmr)
    assert comp.status is CompletionStatus.RETRY_EXC_ERR
    assert qp.state is QPState.ERR


# ----------------------------------------------------------- error-state flush
def test_error_flushes_outstanding_in_posting_order():
    params = HardwareParams(retry_cnt=2)
    sim, ctx, qp, w, lmr, rmr = _rig(params)
    FaultInjector(sim).port_down(qp.local_port)
    comps = []

    def client():
        events = []
        for k in range(4):
            wr = WorkRequest(Opcode.WRITE, wr_id=k, sgl=[Sge(lmr, 0, 64)],
                             remote_mr=rmr, remote_offset=64 * k,
                             move_data=False)
            events.append((yield from w.post(qp, wr)))
        for ev in events:
            comps.append((yield from w.wait(ev)))

    sim.run(until=sim.process(client()))
    # The head burned its retry budget; everything behind it flushed.
    assert comps[0].status is CompletionStatus.RETRY_EXC_ERR
    assert all(c.status is CompletionStatus.WR_FLUSH_ERR for c in comps[1:])
    assert [c.wr_id for c in comps] == [0, 1, 2, 3]
    # In-order completion held: timestamps are non-decreasing.
    stamps = [c.timestamp_ns for c in comps]
    assert stamps == sorted(stamps)
    assert qp.flushed_wrs == 3
    assert qp.outstanding == 0


def test_post_to_err_qp_flushes_immediately():
    params = HardwareParams(retry_cnt=1)
    sim, ctx, qp, w, lmr, rmr = _rig(params)
    FaultInjector(sim).port_down(qp.local_port)
    _one_write(sim, w, qp, lmr, rmr)
    assert qp.state is QPState.ERR
    t0 = sim.now
    comp = _one_write(sim, w, qp, lmr, rmr)
    assert comp.status is CompletionStatus.WR_FLUSH_ERR
    # No hardware was touched: only the CPU-side post/poll cost elapsed.
    assert sim.now - t0 < ctx.params.retrans_timeout_ns


def test_err_qp_flushes_doorbell_batch():
    params = HardwareParams(retry_cnt=1)
    sim, ctx, qp, w, lmr, rmr = _rig(params)
    FaultInjector(sim).port_down(qp.local_port)
    _one_write(sim, w, qp, lmr, rmr)
    wrs = [WorkRequest(Opcode.WRITE, wr_id=k, sgl=[Sge(lmr, 0, 32)],
                       remote_mr=rmr, remote_offset=32 * k, move_data=False)
           for k in range(3)]
    events = qp.post_send_batch(wrs)
    comps = [ev.value for ev in events]
    assert all(c.status is CompletionStatus.WR_FLUSH_ERR for c in comps)
    assert qp.outstanding == 0


# ------------------------------------------------------------------- recovery
def test_reset_requires_err_and_drained_queue():
    sim, ctx, qp, w, lmr, rmr = _rig()
    with pytest.raises(RuntimeError):
        qp.reset()                       # healthy QP: nothing to reset
    with pytest.raises(RuntimeError):
        qp.to_rts()                      # and it is already RTS


def test_reconnect_then_resume():
    params = HardwareParams(retry_cnt=2)
    sim, ctx, qp, w, lmr, rmr = _rig(params)
    injector = FaultInjector(sim)
    injector.port_down(qp.local_port)
    comp = _one_write(sim, w, qp, lmr, rmr)
    assert comp.status is CompletionStatus.RETRY_EXC_ERR
    injector.port_up(qp.local_port)

    t0 = sim.now
    done = {}

    def recover():
        yield ctx.reconnect_qp(qp)
        done["at"] = sim.now

    sim.run(until=sim.process(recover()))
    # The control-plane round trip is charged to the DES clock.
    assert done["at"] - t0 == pytest.approx(params.qp_reconnect_ns)
    assert qp.state is QPState.RTS
    assert qp.reconnects == 1
    comp = _one_write(sim, w, qp, lmr, rmr)
    assert comp.ok


def test_posting_during_reset_raises():
    params = HardwareParams(retry_cnt=1)
    sim, ctx, qp, w, lmr, rmr = _rig(params)
    FaultInjector(sim).port_down(qp.local_port)
    _one_write(sim, w, qp, lmr, rmr)
    qp.reset()
    wr = WorkRequest(Opcode.WRITE, sgl=[Sge(lmr, 0, 8)], remote_mr=rmr,
                     remote_offset=0, move_data=False)
    with pytest.raises(RuntimeError, match="RESET"):
        qp.post_send(wr)


def test_dual_port_failover_routes_around_dead_link():
    params = HardwareParams(retry_cnt=2)
    sim, ctx, qp, w, lmr, rmr = _rig(params)
    injector = FaultInjector(sim)
    injector.port_down(qp.local_port)    # port 0 stays down for good
    comp = _one_write(sim, w, qp, lmr, rmr)
    assert comp.status is CompletionStatus.RETRY_EXC_ERR

    def failover():
        yield ctx.reconnect_qp(qp, local_port=1, remote_port=1)

    sim.run(until=sim.process(failover()))
    assert qp.local_port.index == 1 and qp.remote_port.index == 1
    comp = _one_write(sim, w, qp, lmr, rmr)
    assert comp.ok                       # service restored on port 1
    assert not qp.local_machine.port(0).link_up   # with port 0 still dead


# ------------------------------------------------------------------ sunny path
def test_sunny_path_unchanged_by_armed_injector():
    """An instantiated (but never fired) injector must not move a single
    timestamp: the retry layer is zero-cost without loss."""

    def stamps(with_injector):
        sim, ctx, qp, w, lmr, rmr = _rig()
        if with_injector:
            FaultInjector(sim, rng=make_rng(5))
        out = []

        def client():
            for k in range(10):
                comp = yield from w.write(
                    qp, src=lmr[0:64], dst=rmr[0:64], move_data=False)
                out.append(comp.timestamp_ns)
                comp = yield from w.faa(qp, rmr, 8, add=1)
                out.append(comp.timestamp_ns)

        sim.run(until=sim.process(client()))
        assert qp.retransmissions == 0
        return out

    assert stamps(False) == stamps(True)


def test_retries_ride_into_tenancy_metrics():
    from repro.hw.params import ServiceConfig, TenantSpec
    from repro.tenancy import ServicePlane

    sim, cluster, ctx = build(machines=2)
    plane = ServicePlane(ctx, ServiceConfig(tenants=(TenantSpec("t"),)))
    rmr = ctx.register(1, 4096)
    lmr = ctx.register(0, 4096)
    injector = FaultInjector(sim, rng=make_rng(2))

    def client():
        sess = plane.session("t", machine=0, socket=0)
        comp = yield from sess.write(1, src=lmr[0:64], dst=rmr[0:64],
                                     move_data=False)
        assert comp.ok
        injector.drop_port(cluster[0].port(0), prob=1.0,
                           duration_ns=ctx.params.retrans_timeout_ns / 2)
        comp = yield from sess.write(1, src=lmr[0:64], dst=rmr[0:64],
                                     move_data=False)
        assert comp.ok and comp.retries >= 1

    sim.run(until=sim.process(client()))
    slo = plane.metrics["t"]
    assert slo.retries >= 1
    assert slo.errored == 0


def test_error_statuses_ride_into_tenancy_metrics():
    from repro.hw.params import ServiceConfig, TenantSpec
    from repro.tenancy import ServicePlane

    params = HardwareParams(retry_cnt=1)
    sim, cluster, ctx = build(machines=2, params=params)
    plane = ServicePlane(ctx, ServiceConfig(tenants=(TenantSpec("t"),)))
    rmr = ctx.register(1, 4096)
    lmr = ctx.register(0, 4096)
    injector = FaultInjector(sim)

    def client():
        sess = plane.session("t", machine=0, socket=0)
        injector.port_down(cluster[0].port(0))
        comp = yield from sess.write(1, src=lmr[0:64], dst=rmr[0:64],
                                     move_data=False)
        assert comp.status is CompletionStatus.RETRY_EXC_ERR

    sim.run(until=sim.process(client()))
    slo = plane.metrics["t"]
    assert slo.errors["retry_exceeded"] == 1
    assert slo.ops == 0                  # a failed op moved no goodput
    assert slo.error_rate == 1.0
