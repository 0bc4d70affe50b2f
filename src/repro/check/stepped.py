"""The stepped verbs pipeline: the lane differential's reference.

Each WR runs as one generator process (:func:`_execute`) that yields on
every hold, sleep and join of the paper's per-stage pipeline (Section
II-B3/B4): WQE fetch, requester execution, fabric, responder, response
and delivery.  It is the second timeline of what the express lane
(:mod:`repro.verbs.express`) books in closed form, kept only to be
compared with it: :func:`repro.check.differential.run` with
``express=False`` installs :class:`SteppedLane` where ``RdmaContext``
attaches the lane, and no production module imports this one.

It keeps the lane's tie keys: word locks taken as untimed holds, the
keyed waits after a hold's end key (:func:`_keyed`), and the folded
ACK+CQE wake on a plain route, so both timelines order same-instant
entries alike.  The hardware steps it yields from live here too:
:func:`exec_tx`, :func:`exec_rx` and :func:`exec_atomic` on an
:class:`~repro.hw.rnic.RnicPort`, :func:`dma` on a
:class:`~repro.hw.pcie.PcieLink`, and :func:`traverse` of a fabric
:class:`~repro.hw.fabric.Route`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.verbs import qp as qp_module
from repro.verbs.qp import QPState
from repro.verbs.types import Completion, CompletionStatus, Opcode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.cluster import Cluster
    from repro.hw.fabric import Route
    from repro.hw.pcie import PcieLink
    from repro.hw.rnic import RnicPort
    from repro.sim import Event, Simulator
    from repro.verbs.qp import QueuePair
    from repro.verbs.types import WorkRequest

__all__ = ["SteppedLane", "dma", "exec_atomic", "exec_rx", "exec_tx",
           "traverse"]


class SteppedLane:
    """The express lane's ``post``/``post_batch`` interface, each WR a
    stepped process.  Counts its WRs in ``repro.verbs.qp.tally.stepped``."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim

    @classmethod
    def attach(cls, cluster: "Cluster") -> "SteppedLane":
        """Install (or fetch) the reference on ``cluster``'s simulator."""
        sim = cluster.sim
        if sim.express is None:
            sim.express = cls(sim)
        return sim.express

    def post(self, qp: "QueuePair", wr: "WorkRequest", done: "Event",
             prev: Optional["Event"]) -> None:
        qp_module.tally.stepped += 1
        self.sim.process(_execute(qp, wr, done, fetch_wqe=True, prev=prev,
                                  tracer=qp.tracer),
                         name=f"qp{qp.qp_id}.{wr.opcode.value}")

    def post_batch(self, qp: "QueuePair", wrs: list, events: list,
                   prev: Optional["Event"]) -> None:
        qp_module.tally.stepped += len(wrs)
        self.sim.process(_execute_batch(qp, wrs, events, prev),
                         name=f"qp{qp.qp_id}.doorbell[{len(wrs)}]")


# ------------------------------------------------------------ hw steps
def exec_tx(port: "RnicPort", exec_ns: float, payload_bytes: int,
            n_sge: int = 1, extra_ns: float = 0.0) -> Generator:
    """Process step: occupy the requester pipeline for one WQE."""
    hold = port._perturb(
        port.tx_occupancy_ns(exec_ns, payload_bytes, n_sge, extra_ns))
    yield port.tx_unit.acquire()
    try:
        yield hold
    finally:
        port.tx_unit.release()
    port.tx_ops += 1


def exec_rx(port: "RnicPort", base_ns: float, extra_ns: float = 0.0,
            payload_bytes: int = 0) -> Generator:
    """Process step: responder pipeline occupancy for one inbound op.

    Holds for ``max(processing, inbound serialization)``: a port can
    only absorb data at link rate, so many-to-one traffic queues here
    (the receiver-side bottleneck of the distributed log, Fig 19).
    Returns the hold's end key, as :func:`dma` does.
    """
    if payload_bytes:
        hold = port._perturb(max(base_ns + extra_ns,
                                 port._params.wire_time(payload_bytes)))
    else:
        hold = port._perturb(base_ns + extra_ns)
    yield port.rx_unit.acquire()
    try:
        yield hold
        end = port.sim.now, port.sim.seq_now
    finally:
        port.rx_unit.release()
    port.rx_ops += 1
    return end


def exec_atomic(port: "RnicPort", extra_ns: float = 0.0) -> Generator:
    """Process step: responder-side atomic execution (serialized)."""
    hold = port._perturb(port._params.exec_atomic_ns + extra_ns)
    yield port.atomic_unit.acquire()
    try:
        yield hold
    finally:
        port.atomic_unit.release()
    port.rx_ops += 1


def dma(link: "PcieLink", nbytes: int, mem_socket: int,
        segments: int = 1) -> Generator:
    """Process step: perform one DMA to/from ``mem_socket`` memory.

    Occupies the bus for the transfer duration; yields until done.
    Returns the key ``(now, seq_now)`` of the dispatch the hold ended
    in, which a caller may key a later wake after
    (:meth:`~repro.sim.Simulator.call_keyed`).
    """
    if nbytes < 0:
        raise ValueError(f"negative DMA size: {nbytes}")
    duration = link.dma_ns(nbytes, mem_socket, segments)
    yield link._bus.acquire()
    try:
        yield duration
        end = link.sim.now, link.sim.seq_now
    finally:
        link._bus.release()
    link.dma_bytes += nbytes
    link.dma_count += 1
    return end


def traverse(route: "Route", nbytes: int, droppable: bool = True
             ) -> Generator[float, None, tuple[bool, bool]]:
    """Pay the path: per-hop latency + queue wait + serialization.

    Drive from a sim process with ``yield from``.  Returns
    ``(delivered, ecn_marked)``; a tail-dropped message stops at the
    dropping hop and returns ``delivered=False`` so the RC layer can
    retransmit (re-salting its ECMP hash).  A plain route yields exactly
    one bare delay of ``plain_ns``.
    """
    links = route.links
    if not links:
        yield route.plain_ns
        return (True, False)
    sim = route.fabric.sim
    marked = False
    for link in links:
        delay, ecn, dropped, packets = link.admit(sim.now, nbytes, droppable)
        chk = sim.check
        if chk is not None:
            chk.on_fabric_hop(
                link, packets,
                "drop" if dropped else ("ecn" if ecn else "ok"))
        yield delay
        if dropped:
            route.fabric.drops += 1
            return (False, marked)
        if ecn:
            marked = True
    return (True, marked)


# ------------------------------------------------------------- pipeline
def _landed(_ev: "Event") -> None:
    """Target of the folded ACK+CQE wake, whose process resumes on the
    same event."""


def _keyed(qp: "QueuePair", when: float, end_key: tuple) -> "Event":
    """An event that fires at ``when``, keyed after the hold end key
    ``end_key`` (:meth:`Simulator.call_keyed`)."""
    landed = qp.sim.event()
    qp.sim.call_keyed(when, end_key[1], landed.fire)
    return landed


def _execute_batch(qp: "QueuePair", wrs: list, events: list,
                   prev: Optional["Event"]) -> Generator:
    # One chained DMA fetch for the whole WQE list (the doorbell win).
    total_wqe = sum(qp._wqe_bytes(w) for w in wrs)
    yield from dma(qp.local_port.pcie, total_wqe, qp.sq_socket)
    tracer = qp.tracer
    for wr, ev in zip(wrs, events):
        # WQEs of one doorbell run back-to-back through the pipeline;
        # each chains on its predecessor for in-order completion.
        qp.sim.process(_execute(qp, wr, ev, fetch_wqe=False, prev=prev,
                                tracer=tracer),
                       name=f"qp{qp.qp_id}.{wr.opcode.value}")
        prev = ev
        yield 0.0


def _execute(qp: "QueuePair", wr: "WorkRequest", done: "Event",
             fetch_wqe: bool, prev: Optional["Event"] = None,
             tracer=None) -> Generator:
    """One WR's stepped pipeline; ``tracer`` is the QP's tracer as the
    poster read it (None: untraced)."""
    p = qp._params
    sim = qp.sim
    lport, rport = qp.local_port, qp.remote_port
    lrnic = qp.local_machine.rnic
    opcode = wr.opcode
    total_len = wr.total_length
    record = None if tracer is None else tracer.begin(
        opcode.value, total_len, sim.now, tags=qp.trace_tags)

    # 1. WQE fetch (skipped when a doorbell batch prefetched it).
    if fetch_wqe:
        yield from dma(lport.pcie, qp._wqe_bytes(wr), qp.sq_socket)
    if record is not None:
        record.stamp("wqe_fetch", sim.now)

    # 2+3. Requester execution with cut-through payload fetch: the PCIe
    # DMA of the payload streams concurrently with WQE processing and
    # wire serialization (the RNIC serializes bytes as they arrive), so
    # both resources are held but the latency is their max.
    outbound = (total_len
                if opcode is Opcode.WRITE or opcode is Opcode.SEND else 0)
    inline = outbound <= p.max_inline_bytes
    extra = lrnic.qp_cache.lookup(qp.qp_id)
    translate = lrnic.translate
    for sge in wr.sgl:
        extra += translate(sge.mr, sge.offset, sge.length)
    exec_ns = qp._exec_ns[opcode]
    wire_payload = outbound if outbound else 16  # request header only
    value = None
    status = CompletionStatus.SUCCESS
    losses = 0       # attempts that vanished (request or its ACK)
    retries_done = 0  # retransmissions actually performed
    route = qp._route
    queued = qp._queued   # multi-switch fabric: request pays per-hop
    dcqcn = lport.dcqcn
    while True:
        if qp.state is not QPState.RTS:
            # An earlier WR killed the QP while this one waited on its
            # transport timer: flush without re-touching the hardware.
            status = CompletionStatus.WR_FLUSH_ERR
            break
        if dcqcn is not None:
            # DCQCN pacing: delay this tx so the port's long-run rate
            # tracks the limiter (no-op at line rate).
            pace = dcqcn.pace_ns(sim.now, wire_payload)
            if pace > 0.0:
                yield pace
        if outbound and not inline:
            buf_socket = wr.sgl[0].mr.socket if wr.sgl else lport.socket
            fetch = sim.process(
                dma(lport.pcie, outbound, buf_socket, segments=wr.n_sge))
            tx = sim.process(
                exec_tx(lport, exec_ns, wire_payload, wr.n_sge, extra))
            yield sim.all_of([fetch, tx])
        else:
            # Inlined exec_tx: one generator frame less per WR.
            hold = lport._perturb(lport.tx_occupancy_ns(
                exec_ns, wire_payload, wr.n_sge, extra))
            yield lport.tx_unit.acquire()
            try:
                yield hold
            finally:
                lport.tx_unit.release()
            lport.tx_ops += 1
        if (lport.link_up and rport.link_up
                and lport.loss_prob == 0.0 and rport.loss_prob == 0.0):
            # Sunny path: neither port can drop, so skip the per-attempt
            # sampling calls entirely (they would not draw rng anyway —
            # schedules are identical either way, just cheaper).
            delivered = True
        else:
            # Cut-through folds the payload fetch into this window.
            delivered = not (lport.packet_lost() or rport.packet_lost())
        if delivered and not queued:
            if record is not None:
                record.stamp("exec", sim.now)
            break
        if delivered:
            # Queued fabric: the request pays its path here, inside the
            # retry loop, because any hop may tail-drop it (the plain
            # single-switch hop is paid in _responder_phase instead —
            # same yield sequence, so default schedules are identical).
            if record is not None:
                record.stamp("exec", sim.now)
            delivered, marked = yield from traverse(route, wire_payload)
            if delivered:
                if dcqcn is not None:
                    if marked:
                        dcqcn.on_ecn(sim.now)
                    else:
                        dcqcn.on_delivered(sim.now)
                if record is not None:
                    record.stamp("network", sim.now)
                break
        # Lost attempt: the requester only learns from silence — hold
        # for the (exponentially backed-off) transport ACK timeout,
        # then either retransmit or declare the retry budget spent.
        losses += 1
        yield qp._retrans_wait_ns(losses)
        if record is not None:
            record.stamp("retrans", sim.now)
        if qp.state is not QPState.RTS:
            # An earlier WR declared the QP dead while this one sat on
            # its transport timer: it flushes rather than burning (and
            # double-reporting) its own retry budget.
            status = CompletionStatus.WR_FLUSH_ERR
            break
        if losses > p.retry_cnt:
            status = CompletionStatus.RETRY_EXC_ERR
            qp._enter_error()
            break
        retries_done += 1
        qp.retransmissions += 1
        if queued:
            # ECMP re-salt: hash the retransmission onto a (usually)
            # different equal-cost path, routing around the congested
            # queue or dead link that ate the original.
            route = lrnic.fabric.path(lport, rport,
                                      flow=qp.qp_id + 131 * losses)

    cqe = wr.signaled
    if status is CompletionStatus.SUCCESS:
        # A signaled WRITE or atomic on a plain route waits out its
        # ACK wire and CQE DMA in one wake, and a signaled data-less
        # READ its CQE DMA keyed after its delivery DMA
        # (_responder_phase steps 6 and 7).
        folds = (cqe and not queued and opcode is not Opcode.SEND
                 and (opcode is not Opcode.READ or not wr.move_data))
        value = yield from _responder_phase(qp, wr, record, total_len, folds)
        cqe = cqe and not folds
    if record is not None:
        record.retries = retries_done

    if cqe:
        yield p.cqe_dma_ns
    # RC in-order completion: never overtake an earlier WR on this QP.
    if prev is not None and not prev._processed:
        yield prev
    if qp.state is QPState.ERR and status is CompletionStatus.SUCCESS:
        # The QP died while this (already executed) WR awaited in-order
        # delivery: RC reports it flushed — its data may have landed,
        # the same ambiguity a real flushed completion carries.
        status = CompletionStatus.WR_FLUSH_ERR
    if record is not None:
        record.stamp("delivery", sim.now)
        tracer.commit(record, sim.now)
    qp.completed += 1
    qp_module.tally.completions += 1
    if status is CompletionStatus.WR_FLUSH_ERR:
        qp.flushed_wrs += 1
    if status is CompletionStatus.SUCCESS:
        byte_len = 8 if opcode.is_atomic else total_len
    else:
        value = None
        byte_len = 0
    completion = Completion(
        wr_id=wr.wr_id, opcode=opcode, status=status,
        timestamp_ns=sim.now, value=value,
        byte_len=byte_len, retries=retries_done)
    check = sim.check
    if check is not None:
        check.on_completed(qp, wr, completion)
    if wr.signaled:
        qp.cq.deposit(completion)
    done.succeed(completion)


def _responder_phase(qp: "QueuePair", wr: "WorkRequest", record,
                     total_len: int, folds: bool) -> Generator:
    """Stages 4-7 of a delivered request: fabric, responder execution,
    ACK/response, and local delivery.  Runs once, after the (possibly
    retransmitted) request finally got through; returns the atomic
    result value (None for non-atomics).  ``record`` is the WR's
    OpRecord (None: untraced); ``total_len`` is the caller's
    already-computed ``wr.total_length``; ``folds`` makes the ACK
    wait (a READ's delivery) run on to the end of the CQE DMA."""
    p = qp._params
    sim = qp.sim
    lport, rport = qp.local_port, qp.remote_port
    rrnic = qp.remote_machine.rnic

    # 4. Fabric (request direction).  Queued topologies paid the
    # droppable per-hop traversal inside _execute's retry loop; plain
    # routes pay the fixed crossbar constant here.
    if not qp._queued:
        yield qp._fwd_ns
        if record is not None:
            record.stamp("network", sim.now)

    # 5. Responder.
    value = None
    status = CompletionStatus.SUCCESS
    response_payload = 0
    end_key = None  # a data-less unlocked WRITE's later hold end key
    r_extra = rrnic.qp_cache.lookup(qp.qp_id)
    if wr.opcode.is_atomic:
        rmr = wr.remote_mr
        r_extra += rrnic.translate(rmr, wr.remote_offset, 8)
        r_extra += qp.remote_machine.topology.cross_penalty(
            rport.socket, rmr.socket)
        # Same-word atomics serialize device-wide, then occupy the
        # port's atomic unit for the RMW itself.
        word_lock = rrnic.atomic_word_lock(rmr.key_base | wr.remote_offset)
        # A free lock is taken in this dispatch and a queued one in
        # the releaser's, as the express lane's hold takes it.
        if word_lock.in_use:
            grant = sim.event()
            word_lock.hold(None, grant.fire)
            yield grant
        else:
            word_lock.hold(None)
        try:
            yield from exec_atomic(rport, extra_ns=r_extra)
            value = qp._apply_atomic(wr)
        finally:
            word_lock.release()
        response_payload = 8
    elif wr.opcode is Opcode.WRITE:
        rmr = wr.remote_mr
        r_extra += rrnic.translate(rmr, wr.remote_offset, total_len)
        # Inbound DMA to the alternate socket partially stalls the
        # responder pipeline (Section II-B4).
        r_extra += (p.responder_cross_exposure
                    * qp.remote_machine.topology.cross_penalty(
                        rport.socket, rmr.socket))
        # A plain write to a word that atomics are hammering (a lock
        # release) serializes with the device-wide RMW lock — this is
        # what makes contended remote spinlock handover expensive.
        word_lock = None
        if total_len == 8:
            word_lock = rrnic._atomic_locks.get(
                rmr.key_base | wr.remote_offset)
        if word_lock is not None:
            if word_lock.in_use:
                grant = sim.event()
                word_lock.hold(None, grant.fire)
                yield grant
            else:
                word_lock.hold(None)
        try:
            # Cut-through drain: the responder DMA-writes packets to
            # host memory while later packets are still arriving.
            rx = sim.process(exec_rx(rport, p.responder_ns, extra_ns=r_extra,
                                     payload_bytes=total_len))
            drain = sim.process(dma(rport.pcie, total_len, rmr.socket))
            yield sim.all_of([rx, drain])
        finally:
            if word_lock is not None:
                word_lock.release()
        if wr.move_data:
            qp._apply_write(wr)
        elif word_lock is None and not qp._queued:
            # Nothing happens at either hold's end but a freed unit:
            # the ACK wait is keyed after the later end, as the
            # express lane keys it from its two halves' grants.
            end_key = max(rx._value, drain._value)
    elif wr.opcode is Opcode.READ:
        rmr = wr.remote_mr
        r_extra += rrnic.translate(rmr, wr.remote_offset, total_len)
        yield from exec_rx(rport, p.responder_ns, extra_ns=r_extra)
        # Host-memory fetch turnaround: pure latency, pipelined by the
        # hardware, so it does not occupy the responder unit.
        yield p.read_turnaround_ns
        yield from dma(rport.pcie, total_len, rmr.socket)
        # Response data serializes on the responder's link (this is why
        # outbound READ underperforms inbound WRITE — Section IV-C).
        yield from exec_tx(rport, p.responder_ns, total_len)
        response_payload = total_len
    elif wr.opcode is Opcode.SEND:
        yield from exec_rx(rport, p.responder_ns, extra_ns=r_extra,
                           payload_bytes=wr.payload_bytes)
        yield from dma(rport.pcie, max(wr.payload_bytes, 1), rport.socket)

    if record is not None:
        record.stamp("responder", sim.now)

    # 6. ACK / response returns.  On queued fabrics the reverse path
    # pays queue delay (a READ response is full payload on the wire)
    # but rides the highest-priority VOQ (see docs/FABRIC.md).  Plain
    # routes pay the fixed reverse crossbar constant, and a signaled
    # WRITE or atomic (``folds``) runs that wait on through its CQE DMA.
    # A folded READ waits here as any READ does: its CQE wait is
    # step 7's.
    if qp._queued:
        _, marked = yield from traverse(
            qp._route_back, response_payload if response_payload else 16,
            droppable=False)
        if marked and lport.dcqcn is not None:
            lport.dcqcn.on_ecn(sim.now)
    elif end_key is None and (not folds or wr.opcode is Opcode.READ):
        yield qp._bwd_ns
    else:
        # A signaled WRITE or atomic does nothing when its ACK lands:
        # one wake at the CQE-DMA end, allocated here as the express
        # lane allocates its own, covers both hops.  A data-less
        # unlocked WRITE's wait (to its ACK when unsignaled) is keyed
        # after its later hold end, where the lane books it.
        ack = sim.now + qp._bwd_ns
        when = ack + p.cqe_dma_ns if folds else ack
        if end_key is None:
            yield sim.call_at(when, _landed)
        else:
            yield _keyed(qp, when, end_key)
        if folds:
            if record is not None:
                record.stamp("response_net", ack)
            return value
    if record is not None:
        record.stamp("response_net", sim.now)

    # 7. Local delivery: READ data scattered into local buffers.
    if wr.opcode is Opcode.READ:
        buf_socket = wr.sgl[0].mr.socket
        end_key = yield from dma(lport.pcie, total_len, buf_socket,
                                 segments=wr.n_sge)
        if wr.move_data:
            qp._apply_read(wr)
        elif folds:
            # Nothing happens at the DMA's end but the CQE DMA's start:
            # that wait is keyed after the end, as the lane keys it
            # from its delivery DMA's grant.
            yield _keyed(qp, sim.now + p.cqe_dma_ns, end_key)
    if wr.opcode is Opcode.SEND:
        # Deliver to the peer's receive queue (remote CPU will poll it).
        qp.recv_queue.put(Completion(
            wr_id=wr.wr_id, opcode=Opcode.SEND, status=status,
            timestamp_ns=sim.now, value=wr.payload,
            byte_len=wr.payload_bytes))
    return value
