"""Queued fabric routes and DCQCN on the express lane.

Every rig runs on a leaf-spine fabric, once on the lane and once on the
stepped reference (:mod:`repro.check.stepped`), through
``differential.run``.  The two runs must agree on every completion
(digest and rows), every traced ``OpRecord``, the clock, each link's
packet counters, the fabric's drops, the transport counters and the
DCQCN limiters' state.  Each rig also witnesses the queued branch it is
for: a lane handler it wakes, or a counter it moves.
"""

import pytest

from repro import build
from repro.check import differential
from repro.hw import FaultInjector, HardwareParams
from repro.sim import make_rng
from repro.verbs import Worker
from repro.verbs.qp import QPState
from repro.verbs.trace import OpTracer
from repro.verbs.types import CompletionStatus, Opcode, Sge, WorkRequest
from tests.lane_wakes import lane_wakes


def _rig(machines: int = 8, **params):
    """(sim, cluster, ctx, tracer): a traced leaf-spine cluster, four
    hosts per leaf, two spines."""
    sim, cluster, ctx = build(params=HardwareParams(machines=machines,
                                                    **params),
                              topology="leaf-spine")
    tracer = OpTracer()
    ctx.attach_tracer(tracer)
    return sim, cluster, ctx, tracer


def _row(comp) -> tuple:
    return (comp.wr_id, comp.opcode.value, comp.status.value,
            comp.timestamp_ns, comp.value, comp.byte_len, comp.retries)


def _outcome(sim, cluster, ctx, tracer, log) -> dict:
    fabric = cluster.fabric
    return {
        "log": log,
        "records": [(r.opcode, r.nbytes, r.start_ns, r.end_ns, r.stages,
                     r.retries) for r in tracer.records],
        "now": sim.now,
        "drops": fabric.drops,
        "links": [(link.name, link.packets_in, link.packets_out,
                   link.packets_dropped, link.ecn_marks)
                  for link in fabric.all_links()],
        "transport": [(qp.retransmissions, qp.fatal_errors, qp.flushed_wrs,
                       qp.reconnects) for qp in ctx.qps],
        "dcqcn": [(port.dcqcn.rate_Bns, port.dcqcn.ecn_marks,
                   port.dcqcn.decreases)
                  for machine in cluster for port in machine.rnic.ports
                  if port.dcqcn is not None],
    }


def _two_lanes(scenario, **record) -> tuple[dict, set]:
    """Run ``scenario`` on the stepped reference, then on the lane with
    its wakes recorded (by ``lane_wakes``, with ``record`` if given);
    both must agree.  Returns the lane's outcome and its wakes, by
    default (opcode, handler) pairs."""
    reference = differential.run(scenario, express=False)
    with lane_wakes(**record) as wakes:
        lane = differential.run(scenario, express=True)
    assert differential.compare(scenario, reference, lane) is None
    assert lane.value == reference.value
    assert lane.digests == reference.digests
    assert (lane.express, lane.stepped) == (reference.stepped, 0)
    assert reference.express == 0 and lane.express > 0
    return lane.value, set(wakes)


def _write(lmr, rmr, wr_id, size, off=0, **kw):
    return WorkRequest(Opcode.WRITE, wr_id=wr_id, sgl=[Sge(lmr, 0, size)],
                       remote_mr=rmr, remote_offset=off, **kw)


def _read(lmr, rmr, wr_id, size, **kw):
    return WorkRequest(Opcode.READ, wr_id=wr_id, sgl=[Sge(lmr, 0, size)],
                       remote_mr=rmr, remote_offset=0, **kw)


def _incast(dcqcn: bool, writes: int = 8):
    """Hosts 4-7 (leaf 1) burst ``writes`` 4 KB WRITEs each at host 0
    over spine uplinks with 2-MTU buffers: queues build, mark and
    tail-drop."""
    def scenario():
        sim, cluster, ctx, tracer = _rig(link_queue_depth=2,
                                         dcqcn_enabled=dcqcn)
        rmr = ctx.register(0, 1 << 16)
        log = []

        def sender(i):
            lmr = ctx.register(i, 4096)
            qp = ctx.create_qp(i, 0)
            w = Worker(ctx, i)
            events = []
            for k in range(writes):
                events.append((yield from w.post(qp, _write(
                    lmr, rmr, 100 * i + k, 4096, off=4096 * (i - 4)))))
            for ev in events:
                log.append(_row((yield from w.wait(ev))))

        sim.run(until=sim.all_of([sim.process(sender(i))
                                  for i in range(4, 8)]))
        return _outcome(sim, cluster, ctx, tracer, log)
    return scenario


def test_tail_drop_retransmits_on_a_re_salted_route(monkeypatch):
    """A forward hop tail-drops requests: each is lost at the dropping
    hop's end, waits out its transport timer and retransmits on the
    flow ``qp_id + 131 * losses``."""
    from repro.hw.fabric import LeafSpineFabric

    flows = []
    path = LeafSpineFabric.path
    monkeypatch.setattr(LeafSpineFabric, "path", lambda self, s, d, flow=0: (
        flows.append(flow), path(self, s, d, flow))[1])
    lane, wakes = _two_lanes(_incast(dcqcn=False))
    assert lane["drops"] > 0
    assert sum(t[0] for t in lane["transport"]) > 0
    assert ("WRITE", "_fwd_drop") in wakes
    assert ("WRITE", "_retrans_end") in wakes
    assert {r[2] for r in lane["log"]} == {CompletionStatus.SUCCESS.value}
    assert any(f > 131 for f in flows)  # a re-salted flow was routed
    assert any(r[5] and r[4].get("retrans") for r in lane["records"])


def test_ecn_mark_cuts_dcqcn_and_paces_the_next_attempt():
    """With DCQCN on, marked deliveries cut the senders' rates, and the
    attempts that follow wait out their pacing delay in one wake each
    before their tx holds are sized."""
    lane, wakes = _two_lanes(_incast(dcqcn=True))
    assert any(decreases for _, _, decreases in lane["dcqcn"])
    assert any(link[4] for link in lane["links"])  # ECN marks
    assert ("WRITE", "_attempt") in wakes  # a paced attempt's wake


def test_replies_queue_past_the_buffer_but_are_never_tail_dropped():
    """Hosts 4-7 each READ 4 KB eight times from host 0, half of them
    through each of its two ports: the responses back up on host 0's
    one uplink beyond its 2-MTU buffer, where a request would be
    tail-dropped, and every one of them still gets through.  Marked
    responses cut the readers' DCQCN rates when they land."""
    def scenario():
        sim, cluster, ctx, tracer = _rig(link_queue_depth=2,
                                         dcqcn_enabled=True)
        rmr = ctx.register(0, 4096)
        log = []

        def reader(i):
            lmr = ctx.register(i, 4096)
            qp = ctx.create_qp(i, 0, remote_port=i % 2)
            w = Worker(ctx, i)
            events = []
            for k in range(8):
                events.append((yield from w.post(
                    qp, _read(lmr, rmr, 100 * i + k, 4096))))
            for ev in events:
                log.append(_row((yield from w.wait(ev))))

        sim.run(until=sim.all_of([sim.process(reader(i))
                                  for i in range(4, 8)]))
        uplink = cluster.fabric.host_up[0]
        return {**_outcome(sim, cluster, ctx, tracer, log),
                "uplink": (uplink.queue_peak_bytes, uplink.queue_bytes)}

    lane, wakes = _two_lanes(scenario)
    peak, buffer = lane["uplink"]
    assert peak > buffer  # a droppable message would have been dropped
    assert lane["drops"] == 0
    # Only responses are marked (the requests do not queue), and only
    # the readers' limiters learn of it.
    assert any(marks for _, marks, _ in lane["dcqcn"])
    assert {r[2] for r in lane["log"]} == {CompletionStatus.SUCCESS.value}
    assert ("READ", "_back_hop") in wakes


def _cross_leaf(work, fault=None, **params):
    """A scenario: one client on host 0 runs ``work(ctx, w, qp, lmr, rmr,
    log)`` over a QP to host 4 (across a spine); ``fault(injector,
    cluster, qp)`` arms faults first."""
    def scenario():
        sim, cluster, ctx, tracer = _rig(**params)
        lmr = ctx.register(0, 1 << 14)
        rmr = ctx.register(4, 1 << 14)
        lmr.write(0, bytes(range(256)) * 64)
        qp = ctx.create_qp(0, 4)
        if fault is not None:
            fault(FaultInjector(sim, rng=make_rng(7)), cluster, qp)
        w = Worker(ctx, 0)
        log = []
        sim.run(until=sim.process(work(ctx, w, qp, lmr, rmr, log)))
        return {**_outcome(sim, cluster, ctx, tracer, log),
                "rmem": rmr.read(0, rmr.size), "lmem": lmr.read(0, lmr.size)}
    return scenario


def _retry_exc_then_reconnect(ctx, w, qp, lmr, rmr, log):
    """Posts in pairs; a pair that failed is drained and the QP
    reconnected before the next."""
    for i in range(0, 16, 2):
        events = []
        for k in (i, i + 1):
            events.append((yield from w.post(qp, _write(lmr, rmr, k, 64,
                                                        off=8 * k))))
        for ev in events:
            log.append(_row((yield from w.wait(ev))))
        if qp.state is QPState.ERR:
            yield ctx.reconnect_qp(qp, local_port=1)


def test_retry_exc_on_a_dead_forward_link_then_reconnect():
    """Host 0's uplink is down for 10 us, longer than a retry budget of
    two retransmissions (1 + 2 + 4 us of timers): every attempt dies at
    the first hop, the budget runs out (RETRY_EXC), the WR behind
    flushes, the client reconnects, and once the link heals WRITEs
    complete."""
    def fault(injector, cluster, qp):
        injector.link_down(cluster.fabric.host_up[0], duration_ns=10_000.0)

    lane, wakes = _two_lanes(_cross_leaf(
        _retry_exc_then_reconnect, fault=fault, retry_cnt=2,
        retrans_timeout_ns=1_000.0))
    statuses = [r[2] for r in lane["log"]]
    assert CompletionStatus.RETRY_EXC_ERR.value in statuses
    assert CompletionStatus.WR_FLUSH_ERR.value in statuses
    assert statuses[-1] == CompletionStatus.SUCCESS.value
    retransmissions, fatal, flushed, reconnects = lane["transport"][0]
    assert fatal > 0 and flushed > 0 and reconnects > 0
    assert ("WRITE", "_fwd_drop") in wakes


def _reads_and_sends(ctx, w, qp, lmr, rmr, log):
    """READs of 0, 64, 221 and 4096 B (signaled, unsignaled, data-less)
    and SENDs, which a receiver on host 4 drains."""
    recv = []

    def receiver():
        for _ in range(3):
            recv.append(_row((yield qp.recv())))

    ctx.sim.process(receiver())
    wrs = [_read(lmr, rmr, 1, 0), _read(lmr, rmr, 2, 64),
           _read(lmr, rmr, 3, 221, signaled=False),
           _read(lmr, rmr, 4, 4096, move_data=False),
           WorkRequest(Opcode.SEND, wr_id=5, payload="hi", payload_bytes=2),
           WorkRequest(Opcode.SEND, wr_id=6, payload=b"x" * 300,
                       payload_bytes=300, signaled=False),
           WorkRequest(Opcode.SEND, wr_id=7, payload=None)]
    events = []
    for wr in wrs:
        events.append((yield from w.post(qp, wr)))
    for ev in events:
        log.append(_row((yield from w.wait(ev))))
    log.append(recv)


def test_read_response_and_send_cross_the_reverse_hops():
    """A READ's response (its payload on the wire) leaves at its response
    hold's end and crosses the reverse route hop by hop; a SEND's ACK
    does too, and its payload lands in the receive queue."""
    def at_end(op, handler, arg):  # arg: a grant's end instant, else None
        return op.opcode.name, handler, arg is None

    lane, wakes = _two_lanes(_cross_leaf(_reads_and_sends), record=at_end)
    assert {("READ", "_back_hop", True), ("SEND", "_back_hop", True),
            ("READ", "_read_tx_end", True),
            ("READ", "_deliver_end", True)} <= wakes
    # Neither the response hold nor a delivery DMA (the data-less
    # signaled READ's included) continues at its grant; the rx hold
    # still does (a constant turnaround follows it on any route).
    assert {w for w in wakes if w[0] == "READ" and not w[2]} == {
        ("READ", "_rx_end", False)}
    assert len(lane["log"][-1]) == 3  # every SEND was received
    assert lane["lmem"][:64] == lane["rmem"][:64]


def _acks(ctx, w, qp, lmr, rmr, log):
    """Signaled and unsignaled WRITEs (inline, cut-through, data-less,
    and 8 B to a word an atomic claimed), CAS and FAA."""
    wrs = []
    for signaled in (True, False):
        base = 0 if signaled else 20
        wrs += [
            _write(lmr, rmr, base + 1, 64, signaled=signaled),
            _write(lmr, rmr, base + 2, 2048, off=1024, signaled=signaled),
            _write(lmr, rmr, base + 3, 128, off=4096, move_data=False,
                   signaled=signaled),
            WorkRequest(Opcode.FAA, wr_id=base + 4, remote_mr=rmr,
                        remote_offset=8192, add=3, signaled=signaled),
            WorkRequest(Opcode.CAS, wr_id=base + 5, remote_mr=rmr,
                        remote_offset=8200, compare=0, swap=9,
                        signaled=signaled),
            _write(lmr, rmr, base + 6, 8, off=8192, signaled=signaled),
        ]
    events = []
    for wr in wrs:
        events.append((yield from w.post(qp, wr)))
    for ev in events:
        log.append(_row((yield from w.wait(ev))))


def test_write_and_atomic_acks_cross_the_reverse_hops():
    """Every WRITE and atomic ACK crosses the reverse route, signaled or
    not: nothing folds its ACK wire and CQE DMA into one wake, and a
    data-less WRITE resumes from its service join as a data-moving one
    does."""
    lane, wakes = _two_lanes(_cross_leaf(_acks))
    assert {("WRITE", "_back_hop"), ("FAA", "_back_hop"),
            ("CAS", "_back_hop"), ("WRITE", "_svc_resume")} <= wakes
    assert {r[2] for r in lane["log"]} == {CompletionStatus.SUCCESS.value}
    assert len(lane["records"]) == 12


def _batches(ctx, w, qp, lmr, rmr, log):
    events = []
    for b in range(3):
        events += (yield from w.post_batch(qp, [
            _write(lmr, rmr, 10 * b, 64, off=64 * b),
            _read(lmr, rmr, 10 * b + 1, 512),
            WorkRequest(Opcode.FAA, wr_id=10 * b + 2, remote_mr=rmr,
                        remote_offset=8192, add=1),
            _write(lmr, rmr, 10 * b + 3, 1024, off=2048, signaled=False)]))
    for ev in events:
        log.append(_row((yield from w.wait(ev))))


def test_doorbell_batch_crosses_the_queued_fabric():
    """Doorbell batches (one chained WQE fetch) over queued hops; a lossy
    spine uplink drops some requests and some replies."""
    def fault(injector, cluster, qp):
        injector.drop_link(cluster.fabric.leaf_up[0][qp._route.via[0]], 0.3)
        injector.drop_link(cluster.fabric.leaf_up[1][qp._route_back.via[0]],
                           0.3)

    lane, wakes = _two_lanes(_cross_leaf(_batches, fault=fault))
    assert len(lane["log"]) == 12 and len(lane["records"]) == 12
    handlers = {handler for _, handler in wakes}
    assert {"_fwd_drop", "_back_drop"} <= handlers
    assert [r[4]["wqe_fetch"] for r in lane["records"]].count(0.0) == 12


def _one_write(ctx, w, qp, lmr, rmr, log):
    log.append(_row((yield from w.execute(qp, _write(lmr, rmr, 1, 64)))))


def test_a_reply_dropped_at_a_dead_link_completes_alike_on_both_lanes():
    """The reply's spine uplink is down.  A reply cannot be tail-dropped,
    but a dead link still drops it: the ACK stops at that hop, and the
    WRITE completes SUCCESS there without retransmitting (a known model
    gap, docs/FABRIC.md).  This asserts only that both lanes agree."""
    def fault(injector, cluster, qp):
        injector.link_down(
            cluster.fabric.leaf_up[1][qp._route_back.via[0]])

    lane, wakes = _two_lanes(_cross_leaf(_one_write, fault=fault))
    assert lane["drops"] == 1
    assert lane["transport"][0][0] == 0  # nothing retransmitted
    assert lane["log"][0][2] == CompletionStatus.SUCCESS.value
    assert ("WRITE", "_back_drop") in wakes


def test_a_reconnect_keeps_both_routes_and_a_re_salt_moves_the_spine():
    """ECMP hashes (src machine, dst machine, flow), not ports: a
    reconnect onto port 1 keeps both pinned routes.  Only a
    retransmission's re-salted flow (``qp_id + 131 * k``) moves, and the
    first re-salt takes the other spine."""
    sim, cluster, ctx = differential.run(
        lambda: build(machines=8, topology="leaf-spine"), True).value
    qp = ctx.create_qp(0, 4)
    route, back = qp._route, qp._route_back
    qp._enter_error()
    sim.run(until=ctx.reconnect_qp(qp, local_port=1, remote_port=1))
    assert qp.state is QPState.RTS and qp.local_port.index == 1
    assert qp._route is route and qp._route_back is back
    spines = [cluster.fabric.path(qp.local_port, qp.remote_port,
                                  flow=qp.qp_id + 131 * k).via[0]
              for k in range(4)]
    assert spines[0] == route.via[0]
    assert spines == [spines[0], 1 - spines[0]] * 2


@pytest.mark.parametrize("topology", ["leaf-spine"])
def test_queued_topologies_ride_the_lane(topology):
    """A leaf-spine fabric books every WR on the lane."""
    def scenario():
        sim, cluster, ctx = build(machines=8, topology=topology)
        lmr, rmr = ctx.register(0, 4096), ctx.register(5, 4096)
        qp = ctx.create_qp(0, 5)
        w = Worker(ctx, 0)

        def client():
            for i in range(8):
                yield from w.execute(qp, _write(lmr, rmr, i, 256))

        sim.run(until=sim.process(client()))
        return sim.now

    lane = differential.run(scenario, True)
    reference = differential.run(scenario, False)
    assert lane.value == reference.value
    assert lane.digests == reference.digests
    assert (lane.express, lane.stepped) == (8, 0)
