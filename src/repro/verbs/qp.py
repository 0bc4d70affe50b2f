"""Queue pairs and the per-operation hardware pipeline.

``post_send`` hands a work request to the hardware and returns an event
that fires with the :class:`Completion`.  The pipeline follows the paper's
end-to-end decomposition (Section II-B3/B4):

1. RNIC DMA-reads the WQE (and the payload, if not inlined) over PCIe,
   paying QPI penalties for cross-socket buffers;
2. the requester execution unit processes the WQE — translation-cache
   lookups for every touched page, per-SGE gather overhead, then
   ``max(processing, wire serialization)`` (packet throttling);
3. the fabric adds switch+wire latency;
4. the responder RNIC translates the remote pages and DMA-writes/-reads
   host memory (atomic ops serialize on the responder's atomic unit);
5. the ACK/response returns and a CQE is DMA'd to the host.

CPU-side costs (WQE prep, doorbell MMIO, CQE polling) are charged to the
*calling thread* by :class:`repro.verbs.verbs.Worker`, not here — hardware
and software costs are strictly separated, which is what lets the three
vector-IO strategies differ.

Reliability (RC transport): each transmission attempt samples the loss
state of both endpoint ports (see :mod:`repro.hw.faults`).  A lost
request/ACK costs the requester its execution-unit occupancy plus the
backed-off transport timeout, then retransmits; ``retry_cnt`` losses in a
row complete the WR with ``RETRY_EXC_ERR`` and move the QP to
:attr:`QPState.ERR`, flushing everything else on the send queue with
``WR_FLUSH_ERR`` (in posting order).  Service resumes only through
``RdmaContext.reconnect_qp`` (RESET -> RTS, optionally on other ports).
With no loss faults injected the retry layer adds no events, rng draws,
or timeouts — sunny-path schedules are bit-identical to a loss-free build.
"""

from __future__ import annotations

import enum
import itertools
from typing import Generator, Optional

from repro.hw.machine import Machine
from repro.hw.rnic import RnicPort
from repro.sim import Event, Simulator, Store
from repro.verbs.cq import CompletionQueue
from repro.verbs.types import Completion, CompletionStatus, Opcode, WorkRequest

__all__ = ["QPState", "QueuePair", "STEP_REASONS", "tally"]


class QPState(enum.Enum):
    """RC queue-pair states (the modeled subset of the ibverbs machine).

    Fresh QPs are born RTS (the INIT/RTR handshake is collapsed into
    ``RdmaContext.create_qp``).  A fatal transport error moves RTS -> ERR;
    recovery is ERR -> RESET -> RTS via ``RdmaContext.reconnect_qp``.
    """

    RESET = "reset"
    RTS = "rts"
    ERR = "error"

_qp_ids = itertools.count(1)


#: Size of one work-queue entry in host memory (ConnectX-3 uses 64 B
#: squashed WQEs for short SGLs; each extra SGE adds a 16 B segment).
WQE_BYTES = 64
SGE_SEG_BYTES = 16


#: Why a post stepped instead of taking the express lane
#: (:meth:`QueuePair._step_reason`).  ``lane_off``: the simulator has no
#: lane (``REPRO_EXPRESS=0``, or a fabric that is neither queued nor
#: paced but still not single-switch).
STEP_REASONS = ("lane_off", "queued_route", "dcqcn")


def _landed(_ev: Event) -> None:
    """Target of the stepped pipeline's folded ACK+CQE wake, whose
    process resumes on the same event."""


class _Tally:
    """Process-wide counters, held on an instance rather than a class: a
    write to a class attribute invalidates the class's type version and
    deoptimizes every specialized attribute access on its instances."""

    __slots__ = ("completions", "stepped")

    def __init__(self) -> None:
        self.completions = 0
        #: Stepped WRs by :data:`STEP_REASONS` entry (monotonic); the
        #: lane itself counts nothing.
        self.stepped = dict.fromkeys(STEP_REASONS, 0)


#: Completed WRs across every QP and simulator, both lanes (monotonic).
#: The perf harness divides dispatched events by this to track events/op
#: — the fusion factor the express lane is gated on.
tally = _Tally()


class QueuePair:
    """An RC connection between a local port and a remote port."""

    #: Default send-queue depth (outstanding WRs before posting fails with
    #: the verbs-equivalent of ENOMEM), a typical RC QP configuration.
    DEFAULT_MAX_SEND_WR = 256

    def __init__(self, sim: Simulator, local_machine: Machine,
                 remote_machine: Machine, local_port: RnicPort,
                 remote_port: RnicPort, sq_socket: Optional[int] = None,
                 cq: Optional[CompletionQueue] = None,
                 recv_queue: Optional[Store] = None,
                 max_send_wr: int = DEFAULT_MAX_SEND_WR):
        self.sim = sim
        self.qp_id = next(_qp_ids)
        self.local_machine = local_machine
        self.remote_machine = remote_machine
        self.local_port = local_port
        self.remote_port = remote_port
        #: Socket holding the SQ ring (where WQEs are DMA-fetched from).
        self.sq_socket = sq_socket if sq_socket is not None else local_port.socket
        # Note: `cq or ...` would discard an empty CQ (it is falsy).
        self.cq = cq if cq is not None else CompletionQueue(
            sim, name=f"qp{self.qp_id}.cq")
        #: Channel-semantic receive side (SEND lands here).  A shared store
        #: may be injected so one server thread can serve many client QPs.
        self.recv_queue = recv_queue if recv_queue is not None else Store(
            sim, name=f"qp{self.qp_id}.rq")
        if max_send_wr < 1:
            raise ValueError(f"max_send_wr must be >= 1: {max_send_wr}")
        self.max_send_wr = max_send_wr
        self.posted = 0
        self.completed = 0
        # RC delivers completions strictly in posting order; ops that ride
        # different internal resources (atomics vs reads) must not overtake.
        self._last_completion: Optional[Event] = None
        #: Optional OpTracer (see repro.verbs.trace); set by
        #: RdmaContext.attach_tracer or directly.  A WR is traced when
        #: this is set at its post (for a doorbell batch, at the end of
        #: its chained WQE fetch), on either lane.  None = no overhead.
        self.tracer = None
        #: Service-plane tenant owning this connection (set by
        #: repro.tenancy); None = untenanted, bypasses the plane.
        self.tenant: Optional[str] = None
        #: Tags stamped onto every traced OpRecord of this QP (e.g.
        #: ``{"tenant": "gold"}``); surfaces in Chrome-trace exports.
        self.trace_tags: Optional[dict] = None
        #: True once torn down (ConnectionManager eviction); posting to a
        #: destroyed QP is a hard error.
        self.destroyed = False
        #: Transport state (see :class:`QPState`).
        self.state = QPState.RTS
        # Reliability counters (cheap ints; cross-checked by benches/tests).
        self.retransmissions = 0
        self.fatal_errors = 0
        self.flushed_wrs = 0
        self.reconnects = 0
        # Hot-path precomputation: params are frozen for the lifetime of
        # the machine, so the per-opcode execution-unit costs and process
        # names never change — build them once instead of per post.
        p = local_machine.params
        self._params = p
        self._exec_ns = {
            Opcode.WRITE: p.exec_write_ns,
            Opcode.SEND: p.exec_write_ns,
            Opcode.READ: p.exec_read_ns,
            Opcode.CAS: p.exec_write_ns,
            Opcode.FAA: p.exec_write_ns,
        }
        self._proc_names = {
            op: f"qp{self.qp_id}.{op.value}" for op in Opcode
        }
        self._resolve_routes()

    def _resolve_routes(self) -> None:
        """Pin this connection's fabric paths (ECMP hashes the QP id).

        Called at construction and again by ``RdmaContext.reconnect_qp``
        after a port rebind.  On the default single-switch fabric both
        routes are *plain* (``links == ()``): one bare yield of the
        classic crossbar constant, schedule-identical to the pre-fabric
        model.  Queued fabrics pin one forward and one reverse path;
        retransmissions re-salt the forward hash to route around the
        congested or dead path (see ``_execute``)."""
        fabric = self.local_machine.rnic.fabric
        self._route = fabric.path(self.local_port, self.remote_port,
                                  flow=self.qp_id)
        self._route_back = fabric.path(self.remote_port, self.local_port,
                                       flow=self.qp_id)
        self._queued = bool(self._route.links)
        self._fwd_ns = self._route.plain_ns
        self._bwd_ns = self._route_back.plain_ns

    @property
    def outstanding(self) -> int:
        """WRs posted but not yet completed (SQ occupancy)."""
        return self.posted - self.completed

    def _check_sq_room(self, n: int) -> None:
        if self.destroyed:
            raise RuntimeError(f"QP {self.qp_id} has been destroyed")
        if self.outstanding + n > self.max_send_wr:
            raise RuntimeError(
                f"send queue of QP {self.qp_id} full: {self.outstanding} "
                f"outstanding + {n} > max_send_wr {self.max_send_wr} "
                "(reap completions before posting more)")

    # ------------------------------------------------------- state machine
    def _require_postable(self) -> None:
        if self.state is QPState.RESET:
            raise RuntimeError(
                f"QP {self.qp_id} is in RESET (reconnect in progress); "
                "wait for the reconnect event before posting")

    def _enter_error(self) -> None:
        """Fatal transport error: RTS -> ERR.  In-flight WRs observe the
        state at their next pipeline checkpoint and flush in order."""
        if self.state is QPState.RTS:
            self.state = QPState.ERR
            self.fatal_errors += 1
            check = self.sim.check
            if check is not None:
                check.on_qp_state(self, QPState.RTS, QPState.ERR)

    def _flush_post(self, wr: WorkRequest) -> Event:
        """ibverbs semantics: a WR posted to an ERR-state QP never reaches
        the hardware — it completes immediately with WR_FLUSH_ERR."""
        self.posted += 1
        check = self.sim.check
        if check is not None:
            check.on_posted(self, wr)
        self.completed += 1
        tally.completions += 1
        self.flushed_wrs += 1
        comp = Completion(wr_id=wr.wr_id, opcode=wr.opcode,
                          status=CompletionStatus.WR_FLUSH_ERR,
                          timestamp_ns=self.sim.now, byte_len=0)
        if check is not None:
            check.on_completed(self, wr, comp)
        if wr.signaled:
            self.cq.deposit(comp)
        done = self.sim.event()
        done.succeed(comp)
        return done

    def reset(self) -> None:
        """ERR -> RESET (the first half of error recovery)."""
        if self.state is not QPState.ERR:
            raise RuntimeError(
                f"QP {self.qp_id}: reset() only applies to an ERR-state QP "
                f"(state={self.state.value})")
        if self.outstanding:
            raise RuntimeError(
                f"QP {self.qp_id}: {self.outstanding} WRs still flushing; "
                "reap their completions before reset()")
        self.state = QPState.RESET
        self._last_completion = None
        check = self.sim.check
        if check is not None:
            check.on_qp_state(self, QPState.ERR, QPState.RESET)

    def to_rts(self) -> None:
        """RESET -> RTS (service restored)."""
        if self.state is not QPState.RESET:
            raise RuntimeError(
                f"QP {self.qp_id}: to_rts() requires RESET "
                f"(state={self.state.value})")
        self.state = QPState.RTS
        self.reconnects += 1
        check = self.sim.check
        if check is not None:
            check.on_qp_state(self, QPState.RESET, QPState.RTS)

    # ------------------------------------------------------------------ API
    def _step_reason(self) -> Optional[str]:
        """``None`` when this QP's posts ride the express lane, else the
        :data:`STEP_REASONS` entry that names why its simulator has no
        lane.  A lane is attached per simulator, so every post of every
        QP there takes the same lane; ``ExpressState.attach`` refuses
        queued routes and DCQCN, so they only name why it is off."""
        if self.sim.express is not None:
            return None
        if self._queued:
            return "queued_route"
        return "dcqcn" if self.local_port.dcqcn is not None else "lane_off"

    def post_send(self, wr: WorkRequest) -> Event:
        """Hand one WR to the hardware; returns its completion event."""
        wr.validate()
        self._require_postable()
        self._check_sq_room(1)
        if self.state is QPState.ERR:
            return self._flush_post(wr)
        done = self.sim.event()
        prev, self._last_completion = self._last_completion, done
        self.posted += 1
        check = self.sim.check
        if check is not None:
            check.on_posted(self, wr)
        reason = self._step_reason()
        if reason is None:
            self.sim.express.post(self, wr, done, prev)
            return done
        tally.stepped[reason] += 1
        self.sim.process(self._execute(wr, done, fetch_wqe=True, prev=prev,
                                       tracer=self.tracer),
                         name=self._proc_names[wr.opcode])
        return done

    def post_send_batch(self, wrs: list[WorkRequest]) -> list[Event]:
        """Doorbell batching: one MMIO (charged by the Worker), one chained
        WQE fetch, then the WQEs execute back-to-back."""
        if not wrs:
            raise ValueError("empty doorbell batch")
        for wr in wrs:
            wr.validate()
        self._require_postable()
        self._check_sq_room(len(wrs))
        if self.state is QPState.ERR:
            return [self._flush_post(wr) for wr in wrs]
        self.posted += len(wrs)
        sim = self.sim
        check = sim.check
        if check is not None:
            for wr in wrs:
                check.on_posted(self, wr)
        events = [sim.event() for _ in wrs]
        prev, self._last_completion = self._last_completion, events[-1]
        reason = self._step_reason()
        if reason is None:
            sim.express.post_batch(self, wrs, events, prev)
            return events
        tally.stepped[reason] += len(wrs)
        self.sim.process(self._execute_batch(wrs, events, prev),
                         name=f"qp{self.qp_id}.doorbell[{len(wrs)}]")
        return events

    def recv(self) -> Event:
        """Event carrying the next inbound SEND as a Completion."""
        return self.recv_queue.get()

    # -------------------------------------------------------------- pipeline
    def _wqe_bytes(self, wr: WorkRequest) -> int:
        return WQE_BYTES + max(0, wr.n_sge - 1) * SGE_SEG_BYTES

    def _execute_batch(self, wrs: list[WorkRequest], events: list[Event],
                       prev: Optional[Event]) -> Generator:
        # One chained DMA fetch for the whole WQE list (the doorbell win).
        total_wqe = sum(self._wqe_bytes(w) for w in wrs)
        yield from self.local_port.pcie.dma(total_wqe, self.sq_socket)
        tracer = self.tracer
        for wr, ev in zip(wrs, events):
            # WQEs of one doorbell run back-to-back through the pipeline;
            # each chains on its predecessor for in-order completion.
            self.sim.process(self._execute(wr, ev, fetch_wqe=False,
                                           prev=prev, tracer=tracer),
                             name=self._proc_names[wr.opcode])
            prev = ev
            yield 0.0

    def _execute(self, wr: WorkRequest, done: Event, fetch_wqe: bool,
                 prev: Optional[Event] = None, tracer=None) -> Generator:
        """One WR's stepped pipeline; ``tracer`` is the QP's tracer as the
        poster read it (None: untraced)."""
        p = self._params
        sim = self.sim
        lport, rport = self.local_port, self.remote_port
        lrnic = self.local_machine.rnic
        opcode = wr.opcode
        total_len = wr.total_length
        record = None if tracer is None else tracer.begin(
            opcode.value, total_len, sim.now, tags=self.trace_tags)

        # 1. WQE fetch (skipped when a doorbell batch prefetched it).
        if fetch_wqe:
            yield from lport.pcie.dma(self._wqe_bytes(wr), self.sq_socket)
        if record is not None:
            record.stamp("wqe_fetch", sim.now)

        # 2+3. Requester execution with cut-through payload fetch: the PCIe
        # DMA of the payload streams concurrently with WQE processing and
        # wire serialization (the RNIC serializes bytes as they arrive), so
        # both resources are held but the latency is their max.
        outbound = (total_len
                    if opcode is Opcode.WRITE or opcode is Opcode.SEND else 0)
        inline = outbound <= p.max_inline_bytes
        extra = lrnic.qp_context(self.qp_id)
        translate = lrnic.translate
        for sge in wr.sgl:
            extra += translate(sge.mr.page_keys(sge.offset, sge.length))
        exec_ns = self._exec_ns[opcode]
        wire_payload = outbound if outbound else 16  # request header only
        value = None
        status = CompletionStatus.SUCCESS
        losses = 0       # attempts that vanished (request or its ACK)
        retries_done = 0  # retransmissions actually performed
        route = self._route
        queued = self._queued   # multi-switch fabric: request pays per-hop
        dcqcn = lport.dcqcn
        while True:
            if self.state is not QPState.RTS:
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
                    lport.pcie.dma(outbound, buf_socket, segments=wr.n_sge))
                tx = sim.process(
                    lport.exec_tx(exec_ns, wire_payload, wr.n_sge, extra))
                yield sim.all_of([fetch, tx])
            else:
                # Inlined lport.exec_tx: the single-attempt inline-payload
                # case is the hottest path in every small-op bench, and the
                # extra generator frame + yield-from delegation are
                # measurable at millions of ops.
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
                delivered, marked = yield from route.traverse(wire_payload)
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
            yield self._retrans_wait_ns(losses)
            if record is not None:
                record.stamp("retrans", sim.now)
            if self.state is not QPState.RTS:
                # An earlier WR declared the QP dead while this one sat on
                # its transport timer: it flushes rather than burning (and
                # double-reporting) its own retry budget.
                status = CompletionStatus.WR_FLUSH_ERR
                break
            if losses > p.retry_cnt:
                status = CompletionStatus.RETRY_EXC_ERR
                self._enter_error()
                break
            retries_done += 1
            self.retransmissions += 1
            if queued:
                # ECMP re-salt: hash the retransmission onto a (usually)
                # different equal-cost path, routing around the congested
                # queue or dead link that ate the original.
                route = lrnic.fabric.path(lport, rport,
                                          flow=self.qp_id + 131 * losses)

        cqe = wr.signaled
        if status is CompletionStatus.SUCCESS:
            # A signaled WRITE or atomic on a plain route waits out its
            # ACK wire and CQE DMA in one wake (_responder_phase step 6).
            folds = (cqe and not queued and opcode is not Opcode.READ
                     and opcode is not Opcode.SEND)
            value = yield from self._responder_phase(wr, record, total_len,
                                                     folds)
            cqe = cqe and not folds
        if record is not None:
            record.retries = retries_done

        if cqe:
            yield p.cqe_dma_ns
        # RC in-order completion: never overtake an earlier WR on this QP.
        if prev is not None and not prev._processed:
            yield prev
        if self.state is QPState.ERR and status is CompletionStatus.SUCCESS:
            # The QP died while this (already executed) WR awaited in-order
            # delivery: RC reports it flushed — its data may have landed,
            # the same ambiguity a real flushed completion carries.
            status = CompletionStatus.WR_FLUSH_ERR
        if record is not None:
            record.stamp("delivery", sim.now)
            tracer.commit(record, sim.now)
        self.completed += 1
        tally.completions += 1
        if status is CompletionStatus.WR_FLUSH_ERR:
            self.flushed_wrs += 1
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
            check.on_completed(self, wr, completion)
        if wr.signaled:
            self.cq.deposit(completion)
        done.succeed(completion)

    def _retrans_wait_ns(self, losses: int) -> float:
        """Transport timer for the ``losses``-th consecutive silence:
        truncated exponential backoff off ``retrans_timeout_ns``."""
        p = self._params
        return min(p.retrans_timeout_ns * p.retrans_backoff ** (losses - 1),
                   p.retrans_timeout_cap_ns)

    def _responder_phase(self, wr: WorkRequest, record, total_len: int,
                         folds: bool) -> Generator:
        """Stages 4-7 of a delivered request: fabric, responder execution,
        ACK/response, and local delivery.  Runs once, after the (possibly
        retransmitted) request finally got through; returns the atomic
        result value (None for non-atomics).  ``record`` is the WR's
        OpRecord (None: untraced); ``total_len`` is the caller's
        already-computed ``wr.total_length``; ``folds`` makes the ACK
        wait run on to the end of the CQE DMA."""
        p = self._params
        sim = self.sim
        lport, rport = self.local_port, self.remote_port
        lrnic, rrnic = self.local_machine.rnic, self.remote_machine.rnic

        # 4. Fabric (request direction).  Queued topologies paid the
        # droppable per-hop traversal inside _execute's retry loop; plain
        # routes pay the fixed crossbar constant here.
        if not self._queued:
            yield self._fwd_ns
            if record is not None:
                record.stamp("network", sim.now)

        # 5. Responder.
        value = None
        status = CompletionStatus.SUCCESS
        response_payload = 0
        r_extra = rrnic.qp_context(self.qp_id)
        if wr.opcode.is_atomic:
            rmr = wr.remote_mr
            r_extra += rrnic.translate(rmr.page_keys(wr.remote_offset, 8))
            r_extra += self.remote_machine.topology.cross_penalty(
                rport.socket, rmr.socket)
            # Same-word atomics serialize device-wide, then occupy the
            # port's atomic unit for the RMW itself.
            word_lock = rrnic.atomic_word_lock(
                rmr.key_base | wr.remote_offset)
            # A free lock is taken in this dispatch and a queued one in
            # the releaser's, as the express lane's claim takes it.
            grant = sim.event()
            if not word_lock.claim(grant.fire):
                yield grant
            try:
                yield from rport.exec_atomic(extra_ns=r_extra)
                value = self._apply_atomic(wr)
            finally:
                word_lock.release()
            response_payload = 8
        elif wr.opcode is Opcode.WRITE:
            rmr = wr.remote_mr
            r_extra += rrnic.translate(
                rmr.page_keys(wr.remote_offset, total_len))
            # Inbound DMA to the alternate socket partially stalls the
            # responder pipeline (Section II-B4).
            r_extra += (p.responder_cross_exposure
                        * self.remote_machine.topology.cross_penalty(
                            rport.socket, rmr.socket))
            # A plain write to a word that atomics are hammering (a lock
            # release) serializes with the device-wide RMW lock — this is
            # what makes contended remote spinlock handover expensive.
            word_lock = None
            if total_len == 8:
                word_lock = rrnic._atomic_locks.get(
                    rmr.key_base | wr.remote_offset)
            if word_lock is not None:
                grant = sim.event()
                if not word_lock.claim(grant.fire):
                    yield grant
            try:
                # Cut-through drain: the responder DMA-writes packets to
                # host memory while later packets are still arriving.
                rx = sim.process(rport.exec_rx(
                    p.responder_ns, extra_ns=r_extra,
                    payload_bytes=total_len))
                drain = sim.process(
                    rport.pcie.dma(total_len, rmr.socket))
                yield sim.all_of([rx, drain])
            finally:
                if word_lock is not None:
                    word_lock.release()
            if wr.move_data:
                self._apply_write(wr)
        elif wr.opcode is Opcode.READ:
            rmr = wr.remote_mr
            r_extra += rrnic.translate(
                rmr.page_keys(wr.remote_offset, total_len))
            yield from rport.exec_rx(p.responder_ns, extra_ns=r_extra)
            # Host-memory fetch turnaround: pure latency, pipelined by the
            # hardware, so it does not occupy the responder unit.
            yield p.read_turnaround_ns
            yield from rport.pcie.dma(total_len, rmr.socket)
            # Response data serializes on the responder's link (this is why
            # outbound READ underperforms inbound WRITE — Section IV-C).
            yield from rport.exec_tx(p.responder_ns, total_len)
            response_payload = total_len
        elif wr.opcode is Opcode.SEND:
            yield from rport.exec_rx(p.responder_ns, extra_ns=r_extra,
                                     payload_bytes=wr.payload_bytes)
            yield from rport.pcie.dma(max(wr.payload_bytes, 1), rport.socket)

        if record is not None:
            record.stamp("responder", sim.now)

        # 6. ACK / response returns.  On queued fabrics the reverse path
        # pays queue delay (a READ response is full payload on the wire)
        # but rides the highest-priority VOQ: it is never tail-dropped, so
        # a delivered-and-executed request is always acknowledged.  Losing
        # ACKs instead would make the requester re-execute a completed op;
        # port-level loss faults (which sample both ends) remain the model
        # for that ambiguity.  See docs/FABRIC.md.  Plain routes pay the
        # fixed reverse crossbar constant, and a signaled WRITE or atomic
        # (``folds``) runs that wait on through its CQE DMA.
        if self._queued:
            _, marked = yield from self._route_back.traverse(
                response_payload if response_payload else 16,
                droppable=False)
            if marked and lport.dcqcn is not None:
                lport.dcqcn.on_ecn(sim.now)
        elif folds:
            # A signaled WRITE or atomic does nothing when its ACK lands:
            # one wake at the CQE-DMA end, allocated here as the express
            # lane allocates its own, covers both hops.
            ack = sim.now + self._bwd_ns
            if record is not None:
                record.stamp("response_net", ack)
            yield sim.call_at(ack + p.cqe_dma_ns, _landed)
            return value
        else:
            yield self._bwd_ns
        if record is not None:
            record.stamp("response_net", sim.now)

        # 7. Local delivery: READ data scattered into local buffers.
        if wr.opcode is Opcode.READ:
            buf_socket = wr.sgl[0].mr.socket
            yield from lport.pcie.dma(
                total_len, buf_socket, segments=wr.n_sge)
            if wr.move_data:
                self._apply_read(wr)
        if wr.opcode is Opcode.SEND:
            # Deliver to the peer's receive queue (remote CPU will poll it).
            self.recv_queue.put(Completion(
                wr_id=wr.wr_id, opcode=Opcode.SEND, status=status,
                timestamp_ns=sim.now, value=wr.payload,
                byte_len=wr.payload_bytes))
        return value

    # ---------------------------------------------------------- data plane
    def _apply_write(self, wr: WorkRequest) -> None:
        chunks = [sge.mr.read(sge.offset, sge.length) for sge in wr.sgl]
        wr.remote_mr.write(wr.remote_offset, b"".join(chunks))

    def _apply_read(self, wr: WorkRequest) -> None:
        data = wr.remote_mr.read(wr.remote_offset, wr.total_length)
        cursor = 0
        for sge in wr.sgl:
            sge.mr.write(sge.offset, data[cursor:cursor + sge.length])
            cursor += sge.length

    def _apply_atomic(self, wr: WorkRequest) -> int:
        rmr = wr.remote_mr
        old = rmr.read_u64(wr.remote_offset)
        if wr.opcode is Opcode.CAS:
            if old == wr.compare:
                rmr.write_u64(wr.remote_offset, wr.swap)
        else:  # FAA
            rmr.write_u64(wr.remote_offset, old + wr.add)
        return old

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QP {self.qp_id} m{self.local_machine.machine_id}."
            f"p{self.local_port.index} -> m{self.remote_machine.machine_id}."
            f"p{self.remote_port.index}>"
        )
