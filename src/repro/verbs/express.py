"""Express lane: closed-form WR timelines on single-switch fabrics.

The stepped pipeline (:meth:`repro.verbs.qp.QueuePair._execute`) pays
~13-19 engine events per WR: a process boot, an acquire grant + hold
sleep per contended unit (WQE DMA, payload fetch, tx unit, responder
rx/atomic, response and delivery DMAs), constant sleeps (forward wire,
read turnaround, response wire, CQE DMA), two process-completion events
and an ``all_of`` barrier for the cut-through pairs, and the final
``done`` event.  On plain single-switch routes without DCQCN, every
hold duration is pure arithmetic, known the moment the unit is booked —
port faults included, because the stepped path sizes its holds at the
same instant.

This module replays that timeline with one fused wake-up
(:meth:`Simulator.call_tail`) per *hold* and per *constant sleep* —
none for a READ's two leased holds that nobody queues behind —
roughly halving the events per WR while keeping schedules
bit-identical.  The
load-bearing invariant is tie order: the engine breaks ties at an
instant by event *allocation order* (the global ``seq``), and the
stepped path allocates each hold's end event at its **grant** dispatch —
the arrival dispatch when the unit is free, the *releaser's* dispatch
when it queued.  Anything keyed to arrival order instead inverts
same-instant completion ties under contention, and the inversion
propagates through shared LRU state (metadata SRAM) into different
tables.  So the lane mirrors the grant structure literally:

* Every hold books the unit's own :class:`~repro.sim.Resource` — the
  one FIFO the stepped lane acquires too — with ``Resource.book(dur,
  cb)``: a free unit schedules the end-wake immediately (``now +
  dur``); a busy one queues the booking behind whatever waits there,
  stepped acquires included.
* Every end-wake handler *first* calls ``release()``, which grants the
  head waiter at this very dispatch (a queued booking's end-wake is
  allocated here, exactly where a stepped grant is pushed), then bumps
  the unit's counters (``tx_ops``/``rx_ops``/``dma_count``…) and only
  then continues its own op, matching the stepped ``finally:
  release()`` / counter / continue order statement for statement.
* Two holds end in nothing but a freed unit and a constant delay: a
  READ's responder rx hold (then the turnaround) and its response
  serialization (then the response wire).  They take
  ``Resource.lease(dur, cb)`` instead: the grant — at the same dispatch
  as a booking's — calls ``wcb`` with the end instant, which counts
  ``rx_ops``/``tx_ops``, stamps ``responder`` at the end and books the
  continuation at ``end + constant`` (the float the end-wake would
  compute).  The unit frees itself.  Its end takes a wake only when a
  waiter queues behind the lease, and then at the key the booking's
  end-wake holds, so every handover stays where it was; only the
  continuation's seq moves, to the grant.  Every other hold's end
  touches shared state (a DMA booking, a join, a lock release, a
  ``recv_queue`` put) and keeps its wake.
* Cut-through pairs (payload fetch ∥ tx hold, responder rx ∥ drain
  DMA) join where their second half ends, with a same-instant resume
  wake where the stepped ``all_of`` resumes one dispatch later.  Single
  holds continue inline in their end-wake, like a ``yield from``
  subgenerator resuming its caller.
* Constant delays (forward wire, read turnaround, response wire, CQE
  DMA) get a wake allocated at the same instant the stepped path
  allocates the corresponding sleep.  A signaled WRITE, CAS or FAA does
  nothing when its ACK lands, so its ACK wire and CQE DMA share one
  wake at ``(now + bwd) + cqe_dma``, booked at service end; the stepped
  path waits for that instant with one ``call_at`` booked there too.
  READ (delivery DMA), SEND (``recv_queue.put``) and unsignaled WRs
  (the ACK is their completion) keep a wake per hop.
* Atomic word locks are ``Resource.claim`` holds on the device's
  ``atomic_word_lock`` Resource: a free lock is taken in the arrival
  dispatch, and a queued claim's handover runs the next owner's service
  bookings at the releaser's dispatch.  The stepped path claims the
  same way (``claim(grant.fire)``), so both lanes take the lock at the
  same point of the same dispatch.
* RC in-order completion needs no arithmetic at all: an op whose
  predecessor's ``done`` has not yet *dispatched* parks by attaching
  its wake callback to that event — the very mechanism the stepped
  ``yield prev`` uses — so it resumes at the same dispatch, after any
  application waiters that subscribed earlier.

Because no booking ever lands at a *future* arrival, the timeline never
shifts once scheduled: there is no displacement, no repair pass, and
every scheduled wake is final.

Every wake here — hold ends booked through ``Resource.book``, constant
wires, join resumes and the CQE-DMA end (``P_T``) — is a
:meth:`Simulator.call_tail`, and the completion is a plain
``done.succeed``; the CQE is deposited, on both lanes, without a
``Store.put``-style no-op put-ack (:meth:`CompletionQueue.deposit`).
Whether any of them runs without a heap round trip is the engine's
decision alone (its in-place rule, :meth:`Simulator._park`), and it
pops them in ``call_at``'s order either way: the completion instant and
its waiter order never move.

SRAM evaluations (QP context + per-SGE translation) run inside the
wake handlers at the same instants — and therefore the same LRU order —
as the stepped path; unit counters are incremented at hold ends, not
batched (a READ's leased rx and tx holds count at their grants).

Port faults (:mod:`repro.hw.faults`) are sampled at the dispatches where
the stepped path samples them, so a fault armed at any instant reaches
express and stepped ops alike:

* slowdown and jitter scale the requester tx, responder rx, atomic and
  READ response holds when they are booked (``RnicPort._perturb``);
* after the tx hold (and the cut-through join) each attempt samples
  loss on both ports; a lost attempt books its transport timer
  (``P_RETX``), which retransmits, fails the WR with ``RETRY_EXC_ERR``
  (moving the QP to ERR) or flushes it when the QP died meanwhile.  A
  failed WR skips the responder but pays the CQE DMA and in-order
  parking like any other.

Every opcode rides the lane.  A SEND (two-sided) reuses the READ
responder phases: its arrival books an rx hold sized like the stepped
``exec_rx`` with ``payload_bytes``, the hold end books the DMA that
lands the payload in the responder port's socket, and the response
wire ends in a real ``Store.put`` on the QP's ``recv_queue`` (its
put-ack allocated where the stepped path allocates it) before the CQE
DMA.

The lane is attached per simulator (:meth:`ExpressState.attach`), so
on a lane-attached simulator every post of every QP takes it and no
post ever steps (``QueuePair._step_reason``).  The stepped pipeline
remains the reference: ``REPRO_EXPRESS=0``, queued fabrics and DCQCN
run it for every post.

An installed sanitizer, a dispatch trace and an ``OpTracer`` ride the
lane too: it fires ``on_posted`` (in ``post_send*``, before
the lane decision), ``on_completed`` (in :meth:`ExpressState._complete`)
and ``on_qp_state`` (through ``QueuePair._enter_error``) where the
stepped path fires them, and the engine traces and checks its wakes like
any other dispatch.  A traced op carries its
:class:`~repro.verbs.trace.OpRecord` and stamps each stage at the
dispatch where the stepped ``_execute`` stamps it: ``wqe_fetch`` at the
WQE DMA end, ``exec`` once a delivered attempt clears the tx unit,
``retrans`` at each transport timer, ``network`` at arrival,
``responder`` when the service (WRITE drain, atomic, READ response
serialization) ends, ``response_net`` when the ACK or response lands
(a folded ACK: its landing instant, at service end on both lanes),
and ``delivery`` at the completion instant, where the record commits.
A doorbell batch begins its records after the chained fetch, as the
stepped batch boots its WRs there.

See docs/PERFORMANCE.md ("The express lane") for its eligibility and
the digest-gate implications.
"""

from __future__ import annotations

import os
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.verbs.types import Completion, CompletionStatus, Opcode
from repro.verbs.qp import QPState, tally

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.cluster import Cluster
    from repro.sim import Event, Simulator
    from repro.verbs.qp import QueuePair
    from repro.verbs.trace import OpRecord
    from repro.verbs.types import WorkRequest

__all__ = ["ExpressState", "ExpressOp"]

# Op phases — the target of the op's *primary* wake callback (``wcb``).
# The secondary callback (``wcb2``) serves the concurrent half of a
# cut-through pair and is disambiguated by the same phase field.
(P_WQE,      # WQE DMA end: requester evals, exec bookings
 P_EXEC,     # tx-unit hold end (wcb2: payload-fetch DMA end)
 P_EXEC_R,   # cut-through join resume (mirrors the all_of wake)
 P_RETX,     # transport timer of a lost attempt: retransmit or fail
 P_Y,        # forward wire: request arrives at the responder
 P_SVC,      # WRITE rx / atomic-unit hold end (wcb2: drain DMA end)
 P_SVC_R,    # WRITE service join resume
 P_RX,       # SEND responder hold end; a READ's rx lease grant
 P_TURN,     # READ host-memory turnaround elapsed
 P_RDMA,     # READ response-fetch / SEND payload-landing DMA end
 P_RTX,      # READ response-serialization lease grant
 P_BWD,      # READ response wire: data arrives back at the requester
 P_DLV,      # READ local delivery DMA end
 P_TAIL,     # SEND / unsignaled WRITE or atomic: ACK wire elapsed
 P_T,        # CQE DMA end: completion instant (a signaled WRITE or
             # atomic books it at service end, past its ACK wire)
 P_PARK,     # waiting on the predecessor's done dispatch (in-order RC)
 P_LOCK,     # queued on a word lock; the releaser's handover wakes it
 P_DONE) = range(18)


class ExpressOp:
    """One WR's closed-form timeline (flight state + cached facts)."""

    __slots__ = (
        "qp", "wr", "done",
        # the predecessor's done event (RC in-order completion); the op
        # parks on it when its own tail beats the predecessor's dispatch
        "prev",
        "phase", "opcode", "total_len", "signaled", "move_data",
        "outbound", "inline", "wire_payload", "wqe_bytes",
        # doorbell batch: every op of the batch, on the leader only
        "mates",
        # cut-through join countdown (payload∥tx, rx∥drain)
        "pending",
        # stashed hold durations (unperturbed tx hold while transmitting,
        # then service hold and drain DMA)
        "h1", "h2",
        # RC transport: consecutive lost attempts, retransmissions done,
        # and the CompletionStatus the op will report
        "losses", "retries", "status",
        # held word lock (WRITE-to-hot-word / atomics), else None
        "wl",
        "value",
        # wake callbacks: primary (phase-dispatched) and cut-through
        "wcb", "wcb2",
        # the op's OpRecord (None: untraced) and, once set, the OpTracer
        # it commits to
        "record", "tracer",
    )

    def __init__(self, state: "ExpressState", qp: "QueuePair",
                 wr: "WorkRequest", done: "Event") -> None:
        self.qp = qp
        self.wr = wr
        self.done = done
        self.prev = None
        self.phase = P_WQE
        opcode = wr.opcode
        self.opcode = opcode
        total_len = wr.total_length
        self.total_len = total_len
        self.signaled = wr.signaled
        self.move_data = wr.move_data
        outbound = (total_len
                    if opcode is Opcode.WRITE or opcode is Opcode.SEND else 0)
        self.outbound = outbound
        self.inline = outbound <= qp._params.max_inline_bytes
        self.wire_payload = outbound if outbound else 16
        self.wqe_bytes = 0
        self.mates = None
        self.pending = 0
        self.h1 = 0.0
        self.h2 = 0.0
        self.losses = 0
        self.retries = 0
        self.status = CompletionStatus.SUCCESS
        self.wl = None
        self.value = None
        self.wcb = partial(state._on_wake, self)
        self.wcb2 = None
        self.record = None


class ExpressState:
    """Per-simulator express-lane state: the wake handlers that advance
    each op's timeline."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def attach(cls, cluster: "Cluster") -> Optional["ExpressState"]:
        """Attach (or fetch) the express lane for ``cluster``'s simulator.

        Topology-level eligibility is decided once, here: only the plain
        single-switch fabric has closed-form routes, and DCQCN pacing is
        inherently stateful.  ``REPRO_EXPRESS=0`` disables the lane (the
        lane differential, :mod:`repro.check.differential`, sets it).
        """
        sim = cluster.sim
        state = sim.express
        if state is not None:
            return state
        if cluster.fabric.kind != "single":
            return None
        if cluster.params.dcqcn_enabled:
            return None
        if os.environ.get("REPRO_EXPRESS", "1") == "0":
            return None
        state = cls(sim)
        sim.express = state
        return state

    # ------------------------------------------------------------- posting
    def post(self, qp: "QueuePair", wr: "WorkRequest", done: "Event",
             prev: Optional["Event"]) -> None:
        """Book one WR's WQE fetch; the timeline unrolls wake by wake."""
        op = ExpressOp(self, qp, wr, done)
        op.prev = prev
        tracer = qp.tracer
        if tracer is not None:
            self._begin(op, tracer)
        op.wqe_bytes = wqe = qp._wqe_bytes(wr)
        pcie = qp.local_port.pcie
        pcie._bus.book(pcie.dma_ns(wqe, qp.sq_socket), op.wcb)

    def post_batch(self, qp: "QueuePair", wrs: list, events: list,
                   prev: Optional["Event"]) -> None:
        """Doorbell batch: one chained WQE fetch, WR-ordered evaluation.

        The leader carries the shared fetch (and its DMA counters, with
        the chained total); each op chains in-order on its predecessor's
        ``done`` exactly like the stepped per-WR ``prev`` threading."""
        ops = [ExpressOp(self, qp, wr, ev) for wr, ev in zip(wrs, events)]
        lead = ops[0]
        lead.mates = ops
        total = 0
        for op, wr in zip(ops, wrs):
            total += qp._wqe_bytes(wr)
            op.prev = prev
            prev = op.done
        lead.wqe_bytes = total
        pcie = qp.local_port.pcie
        pcie._bus.book(pcie.dma_ns(total, qp.sq_socket), lead.wcb)

    def _begin(self, op: ExpressOp, tracer) -> "OpRecord":
        """Start ``op``'s trace record now, as the stepped ``_execute``
        does when it boots."""
        op.tracer = tracer
        record = op.record = tracer.begin(
            op.opcode.value, op.total_len, self.sim.now,
            tags=op.qp.trace_tags)
        return record

    # ------------------------------------------------------------- wake-ups
    def _on_wake(self, op: ExpressOp, arg) -> None:
        """Primary wake: advance ``op`` across the boundary ``op.phase``.
        ``arg`` is the end instant when a ``Resource.lease`` grant calls
        it (``P_RX`` of a READ, ``P_RTX``), else unused."""
        phase = op.phase
        if phase == P_WQE:
            self._wqe_end(op)
        elif phase == P_EXEC:
            self._tx_end(op)
        elif phase == P_EXEC_R:
            self._exec_done(op)
        elif phase == P_Y:
            self._arrive(op)
        elif phase == P_SVC:
            if op.opcode is Opcode.WRITE:
                self._write_rx_end(op)
            else:
                self._atomic_end(op)
        elif phase == P_SVC_R:
            self._svc_resume(op)
        elif phase == P_RX:
            self._rx_end(op, arg)
        elif phase == P_TURN:
            self._turnaround_end(op)
        elif phase == P_RDMA:
            self._responder_dma_end(op)
        elif phase == P_RTX:
            self._read_tx_end(op, arg)
        elif phase == P_BWD:
            self._read_back(op)
        elif phase == P_DLV:
            self._deliver_end(op)
        elif phase == P_TAIL:
            self._tail_end(op)
        elif phase == P_T:
            self._try_finish(op)
        elif phase == P_PARK:
            self._complete(op)
        elif phase == P_LOCK:
            # Queued word-lock claim, granted at the releaser's dispatch
            # (the stepped grant instant): book the service stage now.
            if op.opcode is Opcode.WRITE:
                self._write_granted(op)
            else:
                self._atomic_granted(op)
        elif phase == P_RETX:
            self._retrans_end(op)

    def _on_wake2(self, op: ExpressOp, _ev) -> None:
        """Secondary wake: the concurrent half of a cut-through pair."""
        qp = op.qp
        if op.phase == P_EXEC:
            # Payload-fetch DMA end (streams beside the tx hold).
            pcie = qp.local_port.pcie
            pcie._bus.release()
            pcie.dma_bytes += op.outbound
            pcie.dma_count += 1
            self._exec_join(op)
        else:  # P_SVC: WRITE drain DMA end
            pcie = qp.remote_port.pcie
            pcie._bus.release()
            pcie.dma_bytes += op.total_len
            pcie.dma_count += 1
            self._svc_join(op)

    # -- requester side ----------------------------------------------------
    def _wqe_end(self, op: ExpressOp) -> None:
        qp = op.qp
        pcie = qp.local_port.pcie
        pcie._bus.release()
        pcie.dma_bytes += op.wqe_bytes
        pcie.dma_count += 1
        mates = op.mates
        if mates is None:
            record = op.record
            if record is not None:
                record.stamp("wqe_fetch", self.sim.now)
            self._eval_req(op)
        else:
            op.mates = None
            # The stepped batch boots its WRs after the chained fetch:
            # their records begin here, with a zero wqe_fetch stage.
            tracer = qp.tracer
            if tracer is not None:
                now = self.sim.now
                for m in mates:
                    self._begin(m, tracer).stamp("wqe_fetch", now)
            for m in mates:  # WR order == stepped spawn order
                self._eval_req(m)

    def _eval_req(self, op: ExpressOp) -> None:
        """Requester SRAM evaluations + exec-stage bookings.

        Runs at the WQE-DMA-end instant, in stepped order (QP context
        first, then each SGE's pages): these mutate LRU state, so the
        instant and order are part of the equivalence contract.
        """
        qp = op.qp
        wr = op.wr
        lp = qp.local_port
        lrnic = qp.local_machine.rnic
        extra = lrnic.qp_context(qp.qp_id)
        translate = lrnic.translate
        for sge in wr.sgl:
            extra += translate(sge.mr.page_keys(sge.offset, sge.length))
        op.h1 = lp.tx_occupancy_ns(qp._exec_ns[op.opcode], op.wire_payload,
                                   wr.n_sge, extra)
        self._attempt(op)

    def _attempt(self, op: ExpressOp) -> None:
        """One transmission attempt, mirroring the stepped retry-loop top:
        a WR whose QP left RTS flushes before it touches hardware;
        otherwise book the payload (re-)fetch and the tx hold, sized now
        as stepped sizes it (a port fault armed later misses it on both
        lanes)."""
        qp = op.qp
        if qp.state is not QPState.RTS:
            op.status = CompletionStatus.WR_FLUSH_ERR
            self._cqe(op)
            return
        lp = qp.local_port
        op.phase = P_EXEC
        if op.outbound and not op.inline:
            # Cut-through payload fetch rides the PCIe bus concurrently
            # with the tx hold; stepped spawns the fetch first.
            op.pending = 2
            if op.wcb2 is None:
                op.wcb2 = partial(self._on_wake2, op)
            wr = op.wr
            buf_socket = wr.sgl[0].mr.socket if wr.sgl else lp.socket
            lp.pcie._bus.book(
                lp.pcie.dma_ns(op.outbound, buf_socket, wr.n_sge), op.wcb2)
        lp.tx_unit.book(lp._perturb(op.h1), op.wcb)

    def _tx_end(self, op: ExpressOp) -> None:
        lp = op.qp.local_port
        lp.tx_unit.release()
        lp.tx_ops += 1
        if op.pending:
            self._exec_join(op)
        else:
            self._exec_done(op)

    def _exec_join(self, op: ExpressOp) -> None:
        op.pending -= 1
        if op.pending == 0:
            # Same-instant resume wake, mirroring the stepped all_of.
            op.phase = P_EXEC_R
            sim = self.sim
            sim.call_tail(sim.now, op.wcb)

    def _exec_done(self, op: ExpressOp) -> None:
        """Exec stage complete: sample loss where stepped does; a
        delivered request takes the forward wire, a lost one waits out
        the transport timer."""
        qp = op.qp
        lp = qp.local_port
        rp = qp.remote_port
        sim = self.sim
        # Clean ports skip sampling; otherwise the short-circuit order
        # matters, as each packet_lost() call may draw the rng.
        if not (lp.link_up and rp.link_up
                and lp.loss_prob == 0.0 and rp.loss_prob == 0.0) and (
                    lp.packet_lost() or rp.packet_lost()):
            op.losses += 1
            op.phase = P_RETX
            sim.call_tail(sim.now + qp._retrans_wait_ns(op.losses), op.wcb)
            return
        record = op.record
        if record is not None:
            record.stamp("exec", sim.now)
        op.phase = P_Y
        sim.call_tail(sim.now + qp._fwd_ns, op.wcb)

    def _retrans_end(self, op: ExpressOp) -> None:
        """Transport timer fired: flush if the QP died meanwhile, fail at
        the retry budget, else retransmit."""
        qp = op.qp
        record = op.record
        if record is not None:
            record.stamp("retrans", self.sim.now)
        if qp.state is not QPState.RTS:
            op.status = CompletionStatus.WR_FLUSH_ERR
        elif op.losses > qp._params.retry_cnt:
            op.status = CompletionStatus.RETRY_EXC_ERR
            qp._enter_error()
        else:
            op.retries += 1
            qp.retransmissions += 1
            self._attempt(op)
            return
        # A failed WR skips the responder but still pays the CQE DMA.
        self._cqe(op)

    # -- responder side ----------------------------------------------------
    def _arrive(self, op: ExpressOp) -> None:
        """Request arrival: responder evals + service-stage bookings."""
        qp = op.qp
        wr = op.wr
        record = op.record
        if record is not None:
            record.stamp("network", self.sim.now)
        p = qp._params
        rp = qp.remote_port
        rrnic = qp.remote_machine.rnic
        r_extra = rrnic.qp_context(qp.qp_id)
        opcode = op.opcode
        total_len = op.total_len
        rmr = wr.remote_mr
        if opcode is Opcode.READ or opcode is Opcode.SEND:
            if opcode is Opcode.READ:
                r_extra += rrnic.translate(
                    rmr.page_keys(wr.remote_offset, total_len))
            hold = p.responder_ns + r_extra
            if opcode is Opcode.SEND and total_len:
                # The SEND payload serializes into the rx unit at link
                # rate (the stepped exec_rx's ``payload_bytes`` hold).
                hold = max(hold, p.wire_time(total_len))
            op.phase = P_RX
            if opcode is Opcode.READ:
                rp.rx_unit.lease(rp._perturb(hold), op.wcb)
            else:
                rp.rx_unit.book(rp._perturb(hold), op.wcb)
            return
        if opcode is Opcode.WRITE:
            r_extra += rrnic.translate(
                rmr.page_keys(wr.remote_offset, total_len))
            # Inbound DMA to the alternate socket partially stalls the
            # responder pipeline (Section II-B4).
            r_extra += (p.responder_cross_exposure
                        * qp.remote_machine.topology.cross_penalty(
                            rp.socket, rmr.socket))
            if total_len:
                wire = p.wire_time(total_len)
                base = p.responder_ns + r_extra
                op.h1 = base if base > wire else wire
            else:
                op.h1 = p.responder_ns + r_extra
            op.h2 = rp.pcie.dma_ns(total_len, rmr.socket)
            lock = None
            if total_len == 8:
                # An 8-byte write to a word atomics are hammering (a
                # lock release) serializes on the device RMW lock.
                lock = rrnic._atomic_locks.get(
                    rmr.key_base | wr.remote_offset)
            if lock is not None:
                op.wl = lock
                op.phase = P_LOCK
                if not lock.claim(op.wcb):
                    return  # the handover wakes op at P_LOCK
            self._write_granted(op)
            return
        # CAS / FAA
        r_extra += rrnic.translate(rmr.page_keys(wr.remote_offset, 8))
        r_extra += qp.remote_machine.topology.cross_penalty(
            rp.socket, rmr.socket)
        op.h1 = p.exec_atomic_ns + r_extra
        lock = rrnic.atomic_word_lock(rmr.key_base | wr.remote_offset)
        op.wl = lock
        op.phase = P_LOCK
        if lock.claim(op.wcb):
            self._atomic_granted(op)

    def _write_granted(self, op: ExpressOp) -> None:
        """WRITE holds the word lock (if any): cut-through rx ∥ drain."""
        qp = op.qp
        rp = qp.remote_port
        op.phase = P_SVC
        op.pending = 2
        if op.wcb2 is None:
            op.wcb2 = partial(self._on_wake2, op)
        rp.rx_unit.book(rp._perturb(op.h1), op.wcb)
        rp.pcie._bus.book(op.h2, op.wcb2)

    def _atomic_granted(self, op: ExpressOp) -> None:
        """Atomic holds the word lock: occupy the port's atomic unit."""
        op.phase = P_SVC
        rp = op.qp.remote_port
        rp.atomic_unit.book(rp._perturb(op.h1), op.wcb)

    def _write_rx_end(self, op: ExpressOp) -> None:
        rp = op.qp.remote_port
        rp.rx_unit.release()
        rp.rx_ops += 1
        self._svc_join(op)

    def _svc_join(self, op: ExpressOp) -> None:
        op.pending -= 1
        if op.pending == 0:
            op.phase = P_SVC_R
            sim = self.sim
            sim.call_tail(sim.now, op.wcb)

    def _svc_resume(self, op: ExpressOp) -> None:
        """WRITE service done: release the lock, land the data, respond."""
        wl = op.wl
        if wl is not None:
            op.wl = None
            wl.release()
        if op.move_data:
            op.qp._apply_write(op.wr)
        self._respond(op)

    def _atomic_end(self, op: ExpressOp) -> None:
        qp = op.qp
        rp = qp.remote_port
        rp.atomic_unit.release()
        rp.rx_ops += 1
        op.value = qp._apply_atomic(op.wr)
        wl = op.wl
        op.wl = None
        wl.release()
        self._respond(op)

    def _respond(self, op: ExpressOp) -> None:
        """WRITE/atomic/SEND service done: the ACK takes the reverse
        wire.  A signaled WRITE or atomic has nothing to do when its ACK
        lands, so it books its CQE-DMA end (``P_T``) here, at the instant
        the two hops would reach, where the stepped ``_responder_phase``
        books its one wait; a SEND or an unsignaled WR wakes at the ACK
        (``P_TAIL``)."""
        sim = self.sim
        record = op.record
        now = sim.now
        if record is not None:
            record.stamp("responder", now)
        qp = op.qp
        ack = now + qp._bwd_ns
        if op.signaled and op.opcode is not Opcode.SEND:
            if record is not None:
                record.stamp("response_net", ack)
            op.phase = P_T
            sim.call_tail(ack + qp._params.cqe_dma_ns, op.wcb)
            return
        op.phase = P_TAIL
        sim.call_tail(ack, op.wcb)

    # -- READ / SEND responder path -----------------------------------------
    def _rx_end(self, op: ExpressOp, end) -> None:
        """A SEND's rx hold end, or a READ's rx lease grant (``end``)."""
        qp = op.qp
        rp = qp.remote_port
        if op.opcode is Opcode.SEND:
            rp.rx_unit.release()
            rp.rx_ops += 1
            # The payload lands in the responder port's socket memory.
            op.phase = P_RDMA
            pcie = rp.pcie
            pcie._bus.book(pcie.dma_ns(max(op.total_len, 1), rp.socket),
                           op.wcb)
            return
        rp.rx_ops += 1
        # Host-memory fetch turnaround: pure latency, pipelined by the
        # hardware, so it does not occupy the responder unit.
        op.phase = P_TURN
        self.sim.call_tail(end + qp._params.read_turnaround_ns, op.wcb)

    def _turnaround_end(self, op: ExpressOp) -> None:
        pcie = op.qp.remote_port.pcie
        op.phase = P_RDMA
        pcie._bus.book(pcie.dma_ns(op.total_len, op.wr.remote_mr.socket),
                       op.wcb)

    def _responder_dma_end(self, op: ExpressOp) -> None:
        qp = op.qp
        rp = qp.remote_port
        pcie = rp.pcie
        pcie._bus.release()
        pcie.dma_count += 1
        if op.opcode is Opcode.SEND:
            pcie.dma_bytes += max(op.total_len, 1)
            self._respond(op)
            return
        pcie.dma_bytes += op.total_len
        # Response data serializes on the responder's link (this is why
        # outbound READ underperforms inbound WRITE — Section IV-C).
        op.phase = P_RTX
        rp.tx_unit.lease(rp._perturb(
            rp.tx_occupancy_ns(qp._params.responder_ns, op.total_len)), op.wcb)

    def _read_tx_end(self, op: ExpressOp, end: float) -> None:
        """The response-serialization lease's grant: the response takes
        the wire at ``end``."""
        qp = op.qp
        qp.remote_port.tx_ops += 1
        op.phase = P_BWD
        record = op.record
        if record is not None:
            record.stamp("responder", end)
        self.sim.call_tail(end + qp._bwd_ns, op.wcb)

    def _read_back(self, op: ExpressOp) -> None:
        """Response landed: DMA the data into the local buffers."""
        qp = op.qp
        wr = op.wr
        record = op.record
        if record is not None:
            record.stamp("response_net", self.sim.now)
        pcie = qp.local_port.pcie
        op.phase = P_DLV
        pcie._bus.book(pcie.dma_ns(op.total_len, wr.sgl[0].mr.socket,
                                   wr.n_sge), op.wcb)

    def _deliver_end(self, op: ExpressOp) -> None:
        qp = op.qp
        pcie = qp.local_port.pcie
        pcie._bus.release()
        pcie.dma_bytes += op.total_len
        pcie.dma_count += 1
        if op.move_data:
            qp._apply_read(op.wr)
        self._cqe(op)

    # -- completion ---------------------------------------------------------
    def _tail_end(self, op: ExpressOp) -> None:
        record = op.record
        if record is not None:
            record.stamp("response_net", self.sim.now)
        if op.opcode is Opcode.SEND:
            # Deliver to the peer's receive queue before the CQE DMA,
            # through ``Store.put`` so its put-ack keeps the stepped seq.
            wr = op.wr
            op.qp.recv_queue.put(Completion(
                wr_id=wr.wr_id, opcode=Opcode.SEND,
                status=CompletionStatus.SUCCESS, timestamp_ns=self.sim.now,
                value=wr.payload, byte_len=wr.payload_bytes))
        self._cqe(op)

    def _cqe(self, op: ExpressOp) -> None:
        """Service + response done: CQE DMA (when signaled), then finish."""
        if op.signaled:
            op.phase = P_T
            sim = self.sim
            sim.call_tail(sim.now + op.qp._params.cqe_dma_ns, op.wcb)
        else:
            self._try_finish(op)

    def _try_finish(self, op: ExpressOp) -> None:
        """RC in-order completion: never overtake an earlier WR.

        The stepped path parks with ``yield prev`` — a callback on the
        predecessor's done event, resuming at that event's dispatch
        after application waiters that subscribed earlier.  Attaching
        ``wcb`` to the same event reproduces that dispatch, order, and
        completion timestamp exactly.
        """
        prev = op.prev
        if prev is not None and not prev._processed:
            op.phase = P_PARK
            prev.add_callback(op.wcb)
            return
        self._complete(op)

    def _complete(self, op: ExpressOp) -> None:
        """Completion instant: deliver the Completion, unlink the chain.

        The CQE is deposited without a put-ack (``CompletionQueue.
        deposit``), then ``done`` succeeds like any event."""
        op.phase = P_DONE
        op.prev = None
        # The wake partials point back at ``op``; no wake is pending at
        # P_DONE (a parked op is woken from a callback list the dispatch
        # loop has already detached), so dropping them leaves the op
        # acyclic and refcount frees it while run() pauses the collector.
        op.wcb = op.wcb2 = None
        sim = self.sim
        record = op.record
        if record is not None:
            record.retries = op.retries
            record.stamp("delivery", sim.now)
            op.tracer.commit(record, sim.now)
        qp = op.qp
        wr = op.wr
        qp.completed += 1
        tally.completions += 1
        opcode = op.opcode
        status = op.status
        if status is CompletionStatus.SUCCESS and qp.state is QPState.ERR:
            # The QP died while this (already executed) WR awaited
            # in-order delivery: RC reports it flushed — its data may
            # have landed, the same ambiguity the stepped path carries.
            status = CompletionStatus.WR_FLUSH_ERR
        if status is CompletionStatus.SUCCESS:
            value = op.value
            byte_len = 8 if opcode.is_atomic else op.total_len
        else:
            if status is CompletionStatus.WR_FLUSH_ERR:
                qp.flushed_wrs += 1
            value = None
            byte_len = 0
        completion = Completion(
            wr_id=wr.wr_id, opcode=opcode, status=status,
            timestamp_ns=sim.now, value=value, byte_len=byte_len,
            retries=op.retries)
        check = sim.check  # fresh read: a sanitizer may attach mid-run
        if check is not None:
            check.on_completed(qp, wr, completion)
        if op.signaled:
            qp.cq.deposit(completion)
        op.done.succeed(completion)
