"""Express lane: closed-form WR timelines for the sunny one-sided path.

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
(:meth:`Simulator.call_tail`) per *hold* and per *constant sleep*,
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
* Cut-through pairs (payload fetch ∥ tx hold, responder rx ∥ drain
  DMA) join where their second half ends, with a same-instant resume
  wake where the stepped ``all_of`` resumes one dispatch later.  Single
  holds continue inline in their end-wake, like a ``yield from``
  subgenerator resuming its caller.
* Constant delays (forward wire, read turnaround, response wire, CQE
  DMA) each get their own wake allocated at the same instant the
  stepped path allocates the corresponding sleep.
* Atomic word locks are ``Resource.claim`` holds on the device's
  ``atomic_word_lock`` Resource: a queued claim's handover runs the next
  owner's service bookings at the releaser's dispatch — the stepped
  grant instant.
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
``done.succeed``; the CQE is deposited without ``Store.put``'s no-op
put-ack (:meth:`CompletionQueue.deposit`).  Whether any of them runs
without a heap round trip is the engine's decision alone (its in-place
rule, :meth:`Simulator._park`), and it pops them in ``call_at``'s order
either way: the completion instant and its waiter order never move.

SRAM evaluations (QP context + per-SGE translation) run inside the
wake handlers at the same instants — and therefore the same LRU order —
as the stepped path; unit counters are incremented at hold ends, not
batched, so mid-run observers see identical state.

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

Fallback rules (the lane is chosen per post, never mid-flight, by
``QueuePair._step_reason``):

* ineligible post (SEND opcode, unseen in-order predecessor) -> stepped
  generator, unchanged schedules;
* stepped WRs in flight on either port -> stepped, a fence: without it
  a stepped and an express WRITE reaching a shared responder port in
  the same instant can swap FIFO order there.  Stepped WRs posted while
  express ops are in flight queue behind the express bookings on the
  same Resources.

An installed sanitizer, a dispatch trace and an ``OpTracer`` are not
fallback rules: the lane fires ``on_posted`` (in ``post_send*``, before
the lane decision), ``on_completed`` (in :meth:`ExpressState._complete`)
and ``on_qp_state`` (through ``QueuePair._enter_error``) where the
stepped path fires them, and the engine traces and checks its wakes like
any other dispatch.  A traced op carries its
:class:`~repro.verbs.trace.OpRecord` and stamps each stage at the
dispatch where the stepped ``_execute`` stamps it: ``wqe_fetch`` at the
WQE DMA end, ``exec`` once a delivered attempt clears the tx unit,
``retrans`` at each transport timer, ``network`` at arrival,
``responder`` when the service (WRITE drain, atomic, READ response
serialization) ends, ``response_net`` when the ACK or response lands,
and ``delivery`` at the completion instant, where the record commits.
A doorbell batch begins its records after the chained fetch, as the
stepped batch boots its WRs there.

See docs/PERFORMANCE.md ("Express lane") for the eligibility predicate
and the digest-gate implications.
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
 P_RX,       # READ responder hold end
 P_TURN,     # READ host-memory turnaround elapsed
 P_RDMA,     # READ response-fetch DMA end
 P_RTX,      # READ response serialization end
 P_BWD,      # READ response wire: data arrives back at the requester
 P_DLV,      # READ local delivery DMA end
 P_TAIL,     # WRITE/atomic response wire elapsed
 P_T,        # CQE DMA end: completion instant
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
        outbound = total_len if opcode is Opcode.WRITE else 0
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
             prev: Optional["Event"]) -> ExpressOp:
        """Book one WR's WQE fetch; the timeline unrolls wake by wake."""
        op = ExpressOp(self, qp, wr, done)
        op.prev = prev
        tracer = qp.tracer
        if tracer is not None:
            self._begin(op, tracer)
        op.wqe_bytes = wqe = qp._wqe_bytes(wr)
        pcie = qp.local_port.pcie
        pcie._bus.book(pcie.dma_ns(wqe, qp.sq_socket), op.wcb)
        return op

    def post_batch(self, qp: "QueuePair", wrs: list, events: list,
                   prev: Optional["Event"]) -> ExpressOp:
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
        return ops[-1]

    def _begin(self, op: ExpressOp, tracer) -> "OpRecord":
        """Start ``op``'s trace record now, as the stepped ``_execute``
        does when it boots."""
        op.tracer = tracer
        record = op.record = tracer.begin(
            op.opcode.value, op.total_len, self.sim.now,
            tags=op.qp.trace_tags)
        return record

    # ------------------------------------------------------------- wake-ups
    def _on_wake(self, op: ExpressOp, _ev) -> None:
        """Primary wake: advance ``op`` across the boundary ``op.phase``."""
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
            self._read_rx_end(op)
        elif phase == P_TURN:
            self._turnaround_end(op)
        elif phase == P_RDMA:
            self._read_dma_end(op)
        elif phase == P_RTX:
            self._read_tx_end(op)
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
        if opcode is Opcode.READ:
            r_extra += rrnic.translate(
                rmr.page_keys(wr.remote_offset, total_len))
            op.phase = P_RX
            rp.rx_unit.book(rp._perturb(p.responder_ns + r_extra), op.wcb)
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
        record = op.record
        if record is not None:
            record.stamp("responder", self.sim.now)
        self._tail_start(op)

    def _atomic_end(self, op: ExpressOp) -> None:
        qp = op.qp
        rp = qp.remote_port
        rp.atomic_unit.release()
        rp.rx_ops += 1
        op.value = qp._apply_atomic(op.wr)
        wl = op.wl
        op.wl = None
        wl.release()
        record = op.record
        if record is not None:
            record.stamp("responder", self.sim.now)
        self._tail_start(op)

    def _tail_start(self, op: ExpressOp) -> None:
        """WRITE/atomic response: the ACK takes the reverse wire."""
        op.phase = P_TAIL
        sim = self.sim
        sim.call_tail(sim.now + op.qp._bwd_ns, op.wcb)

    # -- READ response path -------------------------------------------------
    def _read_rx_end(self, op: ExpressOp) -> None:
        qp = op.qp
        rp = qp.remote_port
        rp.rx_unit.release()
        rp.rx_ops += 1
        # Host-memory fetch turnaround: pure latency, pipelined by the
        # hardware, so it does not occupy the responder unit.
        op.phase = P_TURN
        sim = self.sim
        sim.call_tail(sim.now + qp._params.read_turnaround_ns, op.wcb)

    def _turnaround_end(self, op: ExpressOp) -> None:
        pcie = op.qp.remote_port.pcie
        op.phase = P_RDMA
        pcie._bus.book(pcie.dma_ns(op.total_len, op.wr.remote_mr.socket),
                       op.wcb)

    def _read_dma_end(self, op: ExpressOp) -> None:
        qp = op.qp
        rp = qp.remote_port
        pcie = rp.pcie
        pcie._bus.release()
        pcie.dma_bytes += op.total_len
        pcie.dma_count += 1
        # Response data serializes on the responder's link (this is why
        # outbound READ underperforms inbound WRITE — Section IV-C).
        op.phase = P_RTX
        rp.tx_unit.book(rp._perturb(
            rp.tx_occupancy_ns(qp._params.responder_ns, op.total_len)), op.wcb)

    def _read_tx_end(self, op: ExpressOp) -> None:
        qp = op.qp
        rp = qp.remote_port
        rp.tx_unit.release()
        rp.tx_ops += 1
        op.phase = P_BWD
        sim = self.sim
        record = op.record
        if record is not None:
            record.stamp("responder", sim.now)
        sim.call_tail(sim.now + qp._bwd_ns, op.wcb)

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
        if qp._last_express_op is op:
            qp._last_express_op = None
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
