"""Express lane: closed-form WR timelines, the one verbs path.

Every post of every QP, on every fabric, rides this lane.  The stepped
pipeline it replays (:mod:`repro.check.stepped`, the lane differential's
reference) pays ~13-19 engine events per WR: a process boot, an acquire
grant + hold sleep per contended unit (WQE DMA, payload fetch, tx unit,
responder rx/atomic, response and delivery DMAs), constant sleeps
(forward wire, read turnaround, response wire, CQE DMA), two
process-completion events and an ``all_of`` barrier for the cut-through
pairs, and the final ``done`` event.  Every hold duration is pure
arithmetic, known the moment the unit is booked — port faults included,
because the stepped path sizes its holds at the same instant — and so
is every fabric hop's delay (``Link.admit`` is bookkeeping).

This module replays that timeline with one fused wake-up per *hold*
and per *constant sleep* — none for a hold that continues at its grant
and that nobody queues behind — roughly halving the events per WR
while keeping schedules bit-identical.  The
load-bearing invariant is tie order: the engine breaks ties at an
instant by event *allocation order* (the global ``seq``), and the
stepped path allocates each hold's end event at its **grant** dispatch —
the arrival dispatch when the unit is free, the *releaser's* dispatch
when it queued.  Anything keyed to arrival order instead inverts
same-instant completion ties under contention, and the inversion
propagates through shared LRU state (metadata SRAM) into different
tables.  So the lane mirrors the grant structure literally:

* Every hold takes the unit's own :class:`~repro.sim.Resource` — the
  one FIFO the stepped lane acquires too — with ``Resource.hold(dur,
  grant, end)``: a free unit is granted now, reserving the end key
  (``now + dur``); a busy one queues the hold behind whatever waits
  there, stepped acquires included.
* A hold with ``end`` wakes at that key.  The wake first frees the
  unit, which grants the head waiter at this very dispatch (a queued
  hold's end key is allocated here, exactly where a stepped grant is
  pushed), and then runs the handler, which bumps the unit's counters
  (``tx_ops``/``rx_ops``/``dma_count``…) and only then continues its
  own op, matching the stepped ``finally: release()`` / counter /
  continue order statement for statement.
* Five holds end in nothing but a freed unit and either a constant
  delay or a join countdown: a READ's responder rx hold (then the
  turnaround), its response serialization (then the response wire), a
  signaled data-less READ's delivery DMA (then the CQE DMA), the half
  of a cut-through pair that provably ends first (see below), and both
  service halves (rx hold, drain DMA) of a WRITE that lands no bytes
  and takes no word lock (then its ACK wire).  They pass their handler
  as ``grant`` instead: the grant — at the same dispatch either way —
  calls it with the end instant, and it counts the unit
  (``rx_ops``/``tx_ops``, or ``dma_bytes``/``dma_count``) and either
  books the continuation at ``end + constant`` (the float the end wake
  would compute; a READ also stamps ``responder`` at the end) or counts
  the join down.  Such a hold's end takes a wake only when a waiter
  queues behind it, and then at the reserved key, so every handover
  stays where it was.  Every other hold's end touches shared state (a
  DMA booking, a join's resume, a lock release, a ``recv_queue`` put, a
  READ's data landing, an unsignaled READ's completion) and keeps its
  wake.
* A continuation booked at a grant is either booked with a fresh
  seq (a READ's turnaround and response wire: its seq moves to the
  grant) or keyed after the hold's reserved end key ``(end, seq)``
  (:meth:`Simulator.call_keyed`: ``seq + 0.5``, after every entry
  allocated up to the key and before every later one).  Keyed are a
  signaled data-less READ's CQE wake, and a data-less unlocked WRITE's
  ACK (``_tail_end``) or CQE (``_try_finish``) wake, which its last
  grant keys after the later half's end key
  (:meth:`ExpressState._svc_join`).  The
  stepped ``_responder_phase`` keys the same waits after the end keys
  its hold processes return, so both lanes order a same-instant
  completion the same way by construction: a fresh seq at the grant
  reorders such ties, and so does the stepped path's own fresh seq at
  the hold end.
* Cut-through pairs (payload fetch ∥ tx hold, responder rx ∥ drain
  DMA) are sized first and booked in the stepped spawn order
  (:meth:`ExpressState._cut_through`).  A half whose unit is free and
  whose end (``now + dur``) is strictly before the other's earliest end
  continues at its grant: the grant counts the join from 2 to 1, which
  is all its end wake did, and it reserves that wake's seq in the same
  dispatch.  The other half's end joins, with a same-instant resume
  wake where the stepped ``all_of`` resumes one dispatch later, so the
  resume's seq does not move either.  A tie, or an earlier half that
  would queue, continues at both ends.  This is the pair of a WRITE
  that lands data or holds a word lock, and of the requester's payload
  fetch and tx hold; a data-less unlocked WRITE continues at both its
  halves' grants instead.  Single holds continue inline in their end
  wake, like a ``yield from`` subgenerator resuming its caller.
* Constant delays (forward wire, read turnaround, response wire, CQE
  DMA) get a wake allocated at the same instant the stepped path
  allocates the corresponding sleep.  A signaled WRITE, CAS or FAA does
  nothing when its ACK lands, so its ACK wire and CQE DMA share one
  wake at ``(now + bwd) + cqe_dma``, booked at service end (keyed, for
  a data-less unlocked WRITE); the stepped path waits for that instant
  with one wake booked there too.
  READ (delivery DMA), SEND (``recv_queue.put``) and unsignaled WRs
  (the ACK is their completion) keep a wake per hop.
* Atomic word locks are untimed holds (``hold(None, grant)``) on the
  device's ``atomic_word_lock`` Resource: a free lock is taken in the
  arrival dispatch, and a queued hold's handover runs the next owner's
  service bookings at the releaser's dispatch.  The stepped path takes
  the lock the same way (``hold(None, grant.fire)``), so both lanes
  take it at the same point of the same dispatch.
* Queued fabric routes (``QueuePair._queued``) cross one hop per wake:
  each hop is admitted (``Link.admit``: queueing, ECN mark, tail drop)
  at the dispatch where the stepped ``traverse`` admits it, and wakes
  at its far end with a fresh seq, where the stepped path sleeps.  The
  request crosses inside the retry loop, after the port-loss sample: a
  dropped hop loses the attempt at its end (``_fwd_drop``), and a
  retransmission re-salts the ECMP flow (``qp_id + 131 * losses``).
  The last hop's wake runs the arrival.  The ACK or response starts its
  reverse hops at the service end (a READ: at its response hold's end,
  which therefore keeps its wake); replies are never tail-dropped, and
  nothing folds on a queued route: no ACK+CQE wake, no data-less WRITE
  continuing at both grants, no delivery DMA continuing at its grant.
* DCQCN: a port with a limiter paces each attempt at its top
  (``pace_ns``; one wake when it is due later, sizing the tx hold
  there), and the limiter learns ECN marks and clean deliveries at the
  last forward hop and marked replies at the reply's landing, where the
  stepped path feeds it.
* RC in-order completion needs no arithmetic at all: an op whose
  predecessor's ``done`` has not yet *dispatched* parks by attaching
  its ``_complete`` to that event — the very mechanism the stepped
  ``yield prev`` uses — so it completes at the same dispatch, after any
  application waiters that subscribed earlier.

Because no booking ever lands at a *future* arrival, the timeline never
shifts once scheduled: there is no displacement, no repair pass, and
every scheduled wake is final.

Every booking names the handler it runs: ``partial(self._handler,
op)``, handed to ``Resource.hold`` (as its ``grant`` or its ``end``),
:meth:`Simulator.call_tail`, a keyed :meth:`Simulator.call_keyed` or
the predecessor's ``add_callback``.  A wake is one call, with no phase
to dispatch on; the op holds no callback of its own, so it is acyclic
and refcount frees it once its last partial has run.  The completion is
a plain ``done.succeed``; the CQE is deposited, on both lanes, without
a ``Store.put``-style no-op put-ack (:meth:`CompletionQueue.deposit`).
Whether any wake runs without a heap round trip is the engine's
decision alone (its in-place rule, :meth:`Simulator._park`), and it
pops them in ``call_at``'s order either way: the completion instant and
its waiter order never move.

SRAM evaluations (QP context + per-SGE translation) run inside the
wake handlers at the same instants — and therefore the same LRU order —
as the stepped path; unit counters are incremented at hold ends, not
batched (a hold that continues at its grant counts there).

Port faults (:mod:`repro.hw.faults`) are sampled at the dispatches where
the stepped path samples them, so a fault armed at any instant reaches
express and stepped ops alike:

* slowdown and jitter scale the requester tx, responder rx, atomic and
  READ response holds when they are booked (``RnicPort._perturb``);
* after the tx hold (and the cut-through join) each attempt samples
  loss on both ports; a lost attempt (or one a fabric hop drops) books
  its transport timer
  (``_retrans_end``), which retransmits, fails the WR with ``RETRY_EXC_ERR``
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

The lane is attached per simulator (:meth:`ExpressState.attach`), for
every fabric, so every post of every QP takes it.  Only the lane
differential (:func:`repro.check.differential.run` with
``express=False``) installs the stepped reference in its place.

An installed sanitizer, a dispatch trace and an ``OpTracer`` ride the
lane too: it fires ``on_posted`` (in ``post_send*``, before
the lane decision), ``on_completed`` (in :meth:`ExpressState._complete`)
and ``on_qp_state`` (through ``QueuePair._enter_error``) where the
stepped path fires them, and the engine traces and checks its wakes like
any other dispatch.  A traced op carries its
:class:`~repro.verbs.trace.OpRecord` and stamps each stage at the
dispatch where the stepped ``_execute`` stamps it: ``wqe_fetch`` at the
WQE DMA end, ``exec`` once a delivered attempt clears the tx unit,
``retrans`` at each transport timer, ``network`` at arrival (a queued
route: at its last forward hop's wake),
``responder`` when the service (WRITE drain, atomic, READ response
serialization) ends, ``response_net`` when the ACK or response lands
(a folded ACK: its landing instant, at service end on both lanes),
and ``delivery`` at the completion instant, where the record commits.
A doorbell batch begins its records after the chained fetch, as the
stepped batch boots its WRs there.

See docs/PERFORMANCE.md ("The express lane") for the digest-gate
implications.
"""

from __future__ import annotations

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


class ExpressOp:
    """One WR's closed-form timeline (flight state + cached facts)."""

    __slots__ = (
        "qp", "wr", "done",
        # the predecessor's done event (RC in-order completion); the op
        # parks on it when its own tail beats the predecessor's dispatch
        "prev",
        "opcode", "total_len", "signaled", "move_data",
        "outbound", "inline", "wire_payload",
        # cut-through join countdown (payload∥tx, rx∥drain)
        "pending",
        # stashed hold durations (unperturbed tx hold while transmitting,
        # then service hold and drain DMA); a data-less unlocked WRITE's
        # first service grant then stashes its end key (end, seq)
        "h1", "h2",
        # RC transport: consecutive lost attempts, retransmissions done,
        # and the CompletionStatus the op will report
        "losses", "retries", "status",
        # held word lock (WRITE-to-hot-word / atomics), else None
        "wl",
        "value",
        # the op's OpRecord (None: untraced) and, once set, the OpTracer
        # it commits to
        "record", "tracer",
    )

    def __init__(self, qp: "QueuePair", wr: "WorkRequest",
                 done: "Event") -> None:
        self.qp = qp
        self.wr = wr
        self.done = done
        self.prev = None
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
        self.pending = 0
        self.h1 = 0.0
        self.h2 = 0.0
        self.losses = 0
        self.retries = 0
        self.status = CompletionStatus.SUCCESS
        self.wl = None
        self.value = None
        self.record = None


class ExpressState:
    """Per-simulator express-lane state: the wake handlers that advance
    each op's timeline.

    Each handler takes ``(op, arg)`` and is booked as ``partial(handler,
    op)``; a fabric hop's handler and a paced attempt also take the
    booking's own state between the two (the route's links, the hop
    index, whether a hop marked the message; ``paced``).  ``arg`` is the
    end instant when a timed ``Resource.hold``
    grant calls it; ``None`` for a scheduled wake, a hold's end, an
    untimed hold's grant (a word lock) or a call from another handler;
    or the predecessor's ``done`` event (a parked completion).  Every
    timed hold frees its unit itself; the lane releases only word
    locks."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def attach(cls, cluster: "Cluster") -> "ExpressState":
        """Attach (or fetch) the express lane for ``cluster``'s simulator:
        the verbs path of every fabric, queued routes and DCQCN included.
        The lane differential (:mod:`repro.check.differential`) installs
        the stepped reference here instead."""
        sim = cluster.sim
        if sim.express is None:
            sim.express = cls(sim)
        return sim.express

    # ------------------------------------------------------------- posting
    def post(self, qp: "QueuePair", wr: "WorkRequest", done: "Event",
             prev: Optional["Event"]) -> None:
        """Book one WR's WQE fetch; the timeline unrolls wake by wake."""
        op = ExpressOp(qp, wr, done)
        op.prev = prev
        tracer = qp.tracer
        if tracer is not None:
            self._begin(op, tracer)
        wqe = qp._wqe_bytes(wr)
        pcie = qp.local_port.pcie
        pcie._bus.hold(pcie.dma_ns(wqe, qp.sq_socket),
                       end=partial(self._wqe_end, op, wqe, None))

    def post_batch(self, qp: "QueuePair", wrs: list, events: list,
                   prev: Optional["Event"]) -> None:
        """Doorbell batch: one chained WQE fetch, WR-ordered evaluation.

        The leader's fetch carries the batch and the chained total (its
        DMA counters count it); each op chains in-order on its
        predecessor's ``done`` exactly like the stepped per-WR ``prev``
        threading."""
        ops = [ExpressOp(qp, wr, ev) for wr, ev in zip(wrs, events)]
        total = 0
        for op, wr in zip(ops, wrs):
            total += qp._wqe_bytes(wr)
            op.prev = prev
            prev = op.done
        pcie = qp.local_port.pcie
        pcie._bus.hold(pcie.dma_ns(total, qp.sq_socket),
                       end=partial(self._wqe_end, ops[0], total, ops))

    def _begin(self, op: ExpressOp, tracer) -> "OpRecord":
        """Start ``op``'s trace record now, as the stepped ``_execute``
        does when it boots."""
        op.tracer = tracer
        record = op.record = tracer.begin(
            op.opcode.value, op.total_len, self.sim.now,
            tags=op.qp.trace_tags)
        return record

    # ------------------------------------------------------------- wake-ups
    def _cut_through(self, op: ExpressOp, unit1, dur1: float, cb1,
                     unit2, dur2: float, cb2) -> None:
        """Hold a cut-through pair, ``unit1`` first as the stepped lane
        spawns it.  A half whose unit is free now and whose end is
        strictly before the other's earliest end (``now + dur``, the
        float ``hold`` computes; a queued half only ends later) passes
        its handler as ``grant``: the grant counts the unit and joins
        (``pending`` 2 → 1), and its end, which would only free the unit,
        takes no wake unless a waiter queues behind it.  The other half's
        end wake finishes the join as before.  A tie, or an earlier half
        that would queue, continues at both ends."""
        op.pending = 2
        now = self.sim.now
        end1 = now + dur1
        end2 = now + dur2
        if end1 < end2 and unit1.in_use == 0:
            unit1.hold(dur1, cb1)
            unit2.hold(dur2, end=cb2)
        elif end2 < end1 and unit2.in_use == 0:
            unit1.hold(dur1, end=cb1)
            unit2.hold(dur2, cb2)
        else:
            unit1.hold(dur1, end=cb1)
            unit2.hold(dur2, end=cb2)

    # -- requester side ----------------------------------------------------
    def _wqe_end(self, op: ExpressOp, wqe_bytes: int, mates, _arg) -> None:
        """The WQE fetch ends: of ``op`` alone, or (``mates``) of the
        doorbell batch ``op`` leads.  Each WR then runs its requester
        SRAM evaluations and books its exec stage."""
        qp = op.qp
        lp = qp.local_port
        pcie = lp.pcie
        pcie.dma_bytes += wqe_bytes
        pcie.dma_count += 1
        if mates is None:
            record = op.record
            if record is not None:
                record.stamp("wqe_fetch", self.sim.now)
            mates = (op,)
        else:
            # The stepped batch boots its WRs after the chained fetch:
            # their records begin here, with a zero wqe_fetch stage.
            tracer = qp.tracer
            if tracer is not None:
                now = self.sim.now
                for m in mates:
                    self._begin(m, tracer).stamp("wqe_fetch", now)
        # At the WQE-DMA-end instant, in stepped order (WR order, then QP
        # context first and each SGE's pages): these mutate LRU state, so
        # the instant and order are part of the equivalence contract.
        lrnic = qp.local_machine.rnic
        translate = lrnic.translate
        for m in mates:
            wr = m.wr
            extra = lrnic.qp_cache.lookup(qp.qp_id)
            for sge in wr.sgl:
                extra += translate(sge.mr, sge.offset, sge.length)
            m.h1 = lp.tx_occupancy_ns(qp._exec_ns[m.opcode], m.wire_payload,
                                      wr.n_sge, extra)
            self._attempt(m)

    def _attempt(self, op: ExpressOp, paced: bool = False,
                 _arg=None) -> None:
        """One transmission attempt, mirroring the stepped retry-loop top:
        a WR whose QP left RTS flushes before it touches hardware; a port
        with a DCQCN limiter paces the attempt (one wake ``pace`` from
        now, ``paced``, where the stepped path sleeps); then book the
        payload (re-)fetch and the tx hold, sized now as stepped sizes it
        (a port fault armed later misses it on both lanes)."""
        qp = op.qp
        lp = qp.local_port
        if not paced:
            if qp.state is not QPState.RTS:
                op.status = CompletionStatus.WR_FLUSH_ERR
                self._cqe(op)
                return
            dcqcn = lp.dcqcn
            if dcqcn is not None:
                sim = self.sim
                pace = dcqcn.pace_ns(sim.now, op.wire_payload)
                if pace > 0.0:
                    sim.call_tail(sim.now + pace,
                                  partial(self._attempt, op, True))
                    return
        tx = op.h1
        if lp.slowdown != 1.0 or lp.jitter_max_ns:  # a perturbed port
            tx = lp._perturb(tx)
        if op.outbound and not op.inline:
            # Cut-through payload fetch rides the PCIe bus concurrently
            # with the tx hold; stepped spawns the fetch first.
            wr = op.wr
            buf_socket = wr.sgl[0].mr.socket if wr.sgl else lp.socket
            pcie = lp.pcie
            self._cut_through(
                op, pcie._bus, pcie.dma_ns(op.outbound, buf_socket, wr.n_sge),
                partial(self._fetch_end, op), lp.tx_unit, tx,
                partial(self._tx_end, op))
        else:
            lp.tx_unit.hold(tx, end=partial(self._tx_end, op))

    def _fetch_end(self, op: ExpressOp, _arg) -> None:
        """The payload fetch, streaming beside the tx hold, ends, or it
        is granted as the first-ending half of the pair."""
        pcie = op.qp.local_port.pcie
        pcie.dma_bytes += op.outbound
        pcie.dma_count += 1
        self._exec_join(op)

    def _tx_end(self, op: ExpressOp, _arg) -> None:
        """The tx hold ends, or it is granted as the first-ending half of
        a cut-through pair."""
        op.qp.local_port.tx_ops += 1
        if op.pending:
            self._exec_join(op)
        else:
            self._exec_done(op, None)

    def _exec_join(self, op: ExpressOp) -> None:
        op.pending -= 1
        if op.pending == 0:
            # Same-instant resume wake, mirroring the stepped all_of.
            sim = self.sim
            sim.call_tail(sim.now, partial(self._exec_done, op))

    def _exec_done(self, op: ExpressOp, _arg) -> None:
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
            sim.call_tail(sim.now + qp._retrans_wait_ns(op.losses),
                          partial(self._retrans_end, op))
            return
        record = op.record
        if record is not None:
            record.stamp("exec", sim.now)
        if qp._queued:
            # Any hop may tail-drop the request, so it crosses the fabric
            # inside the retry loop.  A retransmission re-salts the ECMP
            # hash to route around the queue or dead link that ate it.
            route = qp._route
            if op.losses:
                route = route.fabric.path(lp, rp,
                                          flow=qp.qp_id + 131 * op.losses)
            self._fwd_hop(op, route.links, 0, False, None)
            return
        sim.call_tail(sim.now + qp._fwd_ns, partial(self._arrive, op))

    # -- queued fabric -------------------------------------------------------
    def _admit(self, link, nbytes: int, droppable: bool) -> tuple:
        """Enter ``link`` now (pure bookkeeping, :meth:`Link.admit`), as
        the stepped ``traverse`` enters each hop; returns ``(delay,
        ecn_marked, dropped)``."""
        sim = self.sim
        delay, ecn, dropped, packets = link.admit(sim.now, nbytes, droppable)
        check = sim.check
        if check is not None:
            check.on_fabric_hop(
                link, packets, "drop" if dropped else ("ecn" if ecn else "ok"))
        return delay, ecn, dropped

    def _fwd_hop(self, op: ExpressOp, links: tuple, i: int, marked: bool,
                 _arg) -> None:
        """The request reaches hop ``i`` of its route: enter it, with one
        wake at its far end; past the last hop it arrives, and a DCQCN
        limiter learns whether any hop marked it."""
        sim = self.sim
        if i == len(links):
            dcqcn = op.qp.local_port.dcqcn
            if dcqcn is not None:
                if marked:
                    dcqcn.on_ecn(sim.now)
                else:
                    dcqcn.on_delivered(sim.now)
            self._arrive(op, None)
            return
        delay, ecn, dropped = self._admit(links[i], op.wire_payload, True)
        if dropped:
            sim.call_tail(sim.now + delay, partial(self._fwd_drop, op))
        else:
            sim.call_tail(sim.now + delay, partial(
                self._fwd_hop, op, links, i + 1, marked or ecn))

    def _fwd_drop(self, op: ExpressOp, _arg) -> None:
        """A hop dropped the request: the attempt is lost at the hop's
        end, and the transport timer starts."""
        qp = op.qp
        qp.local_machine.rnic.fabric.drops += 1
        op.losses += 1
        sim = self.sim
        sim.call_tail(sim.now + qp._retrans_wait_ns(op.losses),
                      partial(self._retrans_end, op))

    def _back_hop(self, op: ExpressOp, links: tuple, i: int, marked: bool,
                  _arg) -> None:
        """The ACK or response reaches hop ``i`` of the reverse route.
        Replies ride the priority queue, never tail-dropped; a dead or
        lossy link still drops one, and the reply then ends at that hop
        as if delivered, as the stepped ``traverse`` returns there."""
        if i == len(links):
            self._back_end(op, marked)
            return
        opcode = op.opcode
        if opcode is Opcode.READ:
            nbytes = op.total_len or 16  # the response carries the data
        else:
            nbytes = 8 if opcode.is_atomic else 16
        delay, ecn, dropped = self._admit(links[i], nbytes, False)
        sim = self.sim
        if dropped:
            sim.call_tail(sim.now + delay,
                          partial(self._back_drop, op, marked))
        else:
            sim.call_tail(sim.now + delay, partial(
                self._back_hop, op, links, i + 1, marked or ecn))

    def _back_drop(self, op: ExpressOp, marked: bool, _arg) -> None:
        op.qp.local_machine.rnic.fabric.drops += 1
        self._back_end(op, marked)

    def _back_end(self, op: ExpressOp, marked: bool) -> None:
        """The reply landed (or stopped at a dropping hop): a mark cuts
        the requester's DCQCN rate, then delivery as after a plain
        reverse wire."""
        if marked:
            dcqcn = op.qp.local_port.dcqcn
            if dcqcn is not None:
                dcqcn.on_ecn(self.sim.now)
        if op.opcode is Opcode.READ:
            self._read_back(op, None)
        else:
            self._tail_end(op, None)

    def _retrans_end(self, op: ExpressOp, _arg) -> None:
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
    def _arrive(self, op: ExpressOp, _arg) -> None:
        """Request arrival: responder evals + service-stage bookings."""
        qp = op.qp
        wr = op.wr
        record = op.record
        if record is not None:
            record.stamp("network", self.sim.now)
        p = qp._params
        rp = qp.remote_port
        rrnic = qp.remote_machine.rnic
        r_extra = rrnic.qp_cache.lookup(qp.qp_id)
        opcode = op.opcode
        total_len = op.total_len
        rmr = wr.remote_mr
        if opcode is Opcode.READ or opcode is Opcode.SEND:
            if opcode is Opcode.READ:
                r_extra += rrnic.translate(rmr, wr.remote_offset, total_len)
            hold = p.responder_ns + r_extra
            if opcode is Opcode.SEND and total_len:
                # The SEND payload serializes into the rx unit at link
                # rate (the stepped exec_rx's ``payload_bytes`` hold).
                hold = max(hold, p.wire_time(total_len))
            if rp.slowdown != 1.0 or rp.jitter_max_ns:  # a perturbed port
                hold = rp._perturb(hold)
            if opcode is Opcode.READ:
                rp.rx_unit.hold(hold, partial(self._rx_end, op))
            else:
                rp.rx_unit.hold(hold, end=partial(self._rx_end, op))
            return
        if opcode is Opcode.WRITE:
            r_extra += rrnic.translate(rmr, wr.remote_offset, total_len)
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
            if lock is None:
                self._write_granted(op, None)
            else:
                op.wl = lock
                lock.hold(None, partial(self._write_granted, op))
            return
        # CAS / FAA
        r_extra += rrnic.translate(rmr, wr.remote_offset, 8)
        r_extra += qp.remote_machine.topology.cross_penalty(
            rp.socket, rmr.socket)
        op.h1 = p.exec_atomic_ns + r_extra
        lock = rrnic.atomic_word_lock(rmr.key_base | wr.remote_offset)
        op.wl = lock
        lock.hold(None, partial(self._atomic_granted, op))

    def _write_granted(self, op: ExpressOp, _arg) -> None:
        """WRITE holds the word lock (if any; a queued hold is granted
        at the releaser's dispatch, the stepped grant instant):
        cut-through rx ∥ drain.  A WRITE that lands no bytes, holds no
        lock and takes a plain reverse wire does nothing at either end but
        free the unit, so both halves continue at their grants, rx first
        as the stepped lane spawns it; see :meth:`_svc_join`.  (A queued
        route's reply starts its hops at the service end.)"""
        rp = op.qp.remote_port
        rx, drain = op.h1, op.h2
        if rp.slowdown != 1.0 or rp.jitter_max_ns:  # a perturbed port
            rx = rp._perturb(rx)
        rx_end = partial(self._write_rx_end, op)
        drain_end = partial(self._drain_end, op)
        if op.wl is None and not op.move_data and not op.qp._queued:
            op.pending = 2
            rp.rx_unit.hold(rx, rx_end)
            rp.pcie._bus.hold(drain, drain_end)
            return
        self._cut_through(op, rp.rx_unit, rx, rx_end, rp.pcie._bus, drain,
                          drain_end)

    def _atomic_granted(self, op: ExpressOp, _arg) -> None:
        """Atomic holds the word lock: occupy the port's atomic unit."""
        rp = op.qp.remote_port
        hold = op.h1
        if rp.slowdown != 1.0 or rp.jitter_max_ns:  # a perturbed port
            hold = rp._perturb(hold)
        rp.atomic_unit.hold(hold, end=partial(self._atomic_end, op))

    def _write_rx_end(self, op: ExpressOp, end) -> None:
        """The rx hold ends, or (``end``) it is granted: the first-ending
        half of a cut-through pair, or a data-less WRITE's."""
        op.qp.remote_port.rx_ops += 1
        self._svc_join(op, end)

    def _drain_end(self, op: ExpressOp, end) -> None:
        """The drain DMA ends, or (``end``) it is granted."""
        pcie = op.qp.remote_port.pcie
        pcie.dma_bytes += op.total_len
        pcie.dma_count += 1
        self._svc_join(op, end)

    def _svc_join(self, op: ExpressOp, end) -> None:
        """One WRITE service half is done: its end wake, or its grant
        (``end``).  When both halves continue at their grants (a
        data-less unlocked WRITE on a plain route) the first grant
        stashes its reserved end key and the last one responds keyed
        after the later key, where the stepped lane keys its ACK wait; a
        cut-through pair resumes at its last end."""
        op.pending -= 1
        if op.wl is None and not op.move_data and not op.qp._queued:
            key = (end, self.sim._seq)  # the hold's reserved end key
            if op.pending:
                op.h1, op.h2 = key
            else:
                self._respond(op, max(key, (op.h1, op.h2)))
        elif op.pending == 0:
            sim = self.sim
            sim.call_tail(sim.now, partial(self._svc_resume, op))

    def _svc_resume(self, op: ExpressOp, _arg) -> None:
        """WRITE service done: release the lock, land the data, respond."""
        wl = op.wl
        if wl is not None:
            op.wl = None
            wl.release()
        if op.move_data:
            op.qp._apply_write(op.wr)
        self._respond(op)

    def _atomic_end(self, op: ExpressOp, _arg) -> None:
        qp = op.qp
        qp.remote_port.rx_ops += 1
        op.value = qp._apply_atomic(op.wr)
        wl = op.wl
        op.wl = None
        wl.release()
        self._respond(op)

    def _respond(self, op: ExpressOp, key=None) -> None:
        """WRITE/atomic/SEND service done: the ACK takes the reverse
        wire, or a READ response leaves (on a queued route).  A queued
        route's reply starts its hops now.  On a plain route a signaled
        WRITE or atomic has nothing to do when its ACK lands, so it books
        its CQE-DMA end (``_try_finish``) here, at the instant the two
        hops would reach, where the stepped ``_responder_phase`` books its
        one wait; a SEND or an unsignaled WR wakes at the ACK
        (``_tail_end``).  With ``key``, the later end key ``(end, seq)``
        of a data-less WRITE's two halves, the service ends at ``end``
        and the wake is keyed after it (:meth:`Simulator.call_keyed`)."""
        sim = self.sim
        record = op.record
        now = sim.now if key is None else key[0]
        if record is not None:
            record.stamp("responder", now)
        qp = op.qp
        if qp._queued:
            self._back_hop(op, qp._route_back.links, 0, False, None)
            return
        ack = now + qp._bwd_ns
        if op.signaled and op.opcode is not Opcode.SEND:
            if record is not None:
                record.stamp("response_net", ack)
            when = ack + qp._params.cqe_dma_ns
            wake = partial(self._try_finish, op)
        else:
            when = ack
            wake = partial(self._tail_end, op)
        if key is None:
            sim.call_tail(when, wake)
        else:
            sim.call_keyed(when, key[1], wake)

    # -- READ / SEND responder path -----------------------------------------
    def _rx_end(self, op: ExpressOp, end) -> None:
        """A SEND's rx hold end, or a READ's rx hold grant (``end``)."""
        qp = op.qp
        rp = qp.remote_port
        rp.rx_ops += 1
        if op.opcode is Opcode.SEND:
            # The payload lands in the responder port's socket memory.
            pcie = rp.pcie
            pcie._bus.hold(pcie.dma_ns(max(op.total_len, 1), rp.socket),
                           end=partial(self._responder_dma_end, op))
            return
        # Host-memory fetch turnaround: pure latency, pipelined by the
        # hardware, so it does not occupy the responder unit.
        self.sim.call_tail(end + qp._params.read_turnaround_ns,
                           partial(self._turnaround_end, op))

    def _turnaround_end(self, op: ExpressOp, _arg) -> None:
        pcie = op.qp.remote_port.pcie
        pcie._bus.hold(pcie.dma_ns(op.total_len, op.wr.remote_mr.socket),
                       end=partial(self._responder_dma_end, op))

    def _responder_dma_end(self, op: ExpressOp, _arg) -> None:
        qp = op.qp
        rp = qp.remote_port
        pcie = rp.pcie
        pcie.dma_count += 1
        if op.opcode is Opcode.SEND:
            pcie.dma_bytes += max(op.total_len, 1)
            self._respond(op)
            return
        pcie.dma_bytes += op.total_len
        # Response data serializes on the responder's link (this is why
        # outbound READ underperforms inbound WRITE — Section IV-C).
        tx = rp.tx_occupancy_ns(qp._params.responder_ns, op.total_len)
        if rp.slowdown != 1.0 or rp.jitter_max_ns:  # a perturbed port
            tx = rp._perturb(tx)
        if qp._queued:
            rp.tx_unit.hold(tx, end=partial(self._read_tx_end, op))
        else:
            rp.tx_unit.hold(tx, partial(self._read_tx_end, op))

    def _read_tx_end(self, op: ExpressOp, end) -> None:
        """The response serialization's grant: the response takes the
        plain wire at ``end``.  On a queued route its hops start at the
        hold's end wake (``end`` None) instead."""
        qp = op.qp
        qp.remote_port.tx_ops += 1
        if end is None:
            self._respond(op)
            return
        record = op.record
        if record is not None:
            record.stamp("responder", end)
        self.sim.call_tail(end + qp._bwd_ns, partial(self._read_back, op))

    def _read_back(self, op: ExpressOp, _arg) -> None:
        """Response landed: DMA the data into the local buffers."""
        qp = op.qp
        wr = op.wr
        record = op.record
        if record is not None:
            record.stamp("response_net", self.sim.now)
        pcie = qp.local_port.pcie
        dur = pcie.dma_ns(op.total_len, wr.sgl[0].mr.socket, wr.n_sge)
        if op.signaled and not op.move_data and not qp._queued:
            # Nothing happens at this DMA's end but the CQE DMA's start:
            # continue at the grant (as the stepped lane folds it on a
            # plain route only).
            pcie._bus.hold(dur, partial(self._deliver_end, op))
        else:
            pcie._bus.hold(dur, end=partial(self._deliver_end, op))

    def _deliver_end(self, op: ExpressOp, end) -> None:
        """The delivery DMA ends, or (``end``) a signaled data-less READ's
        delivery DMA is granted: its CQE DMA starts at ``end``."""
        qp = op.qp
        pcie = qp.local_port.pcie
        pcie.dma_bytes += op.total_len
        pcie.dma_count += 1
        if end is not None:
            # Keyed after the hold's reserved end key, where the stepped
            # lane keys its CQE wait.
            sim = self.sim
            sim.call_keyed(end + qp._params.cqe_dma_ns, sim._seq,
                           partial(self._try_finish, op))
            return
        if op.move_data:
            qp._apply_read(op.wr)
        self._cqe(op)

    # -- completion ---------------------------------------------------------
    def _tail_end(self, op: ExpressOp, _arg) -> None:
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
            sim = self.sim
            sim.call_tail(sim.now + op.qp._params.cqe_dma_ns,
                          partial(self._try_finish, op))
        else:
            self._try_finish(op, None)

    def _try_finish(self, op: ExpressOp, _arg) -> None:
        """RC in-order completion: never overtake an earlier WR.

        The stepped path parks with ``yield prev`` — a callback on the
        predecessor's done event, resuming at that event's dispatch
        after application waiters that subscribed earlier.  Attaching
        ``_complete`` to the same event reproduces that dispatch, order,
        and completion timestamp exactly.
        """
        prev = op.prev
        if prev is not None and not prev._processed:
            prev.add_callback(partial(self._complete, op))
            return
        self._complete(op, None)

    def _complete(self, op: ExpressOp, _arg) -> None:
        """Completion instant: deliver the Completion.

        The CQE is deposited without a put-ack (``CompletionQueue.
        deposit``), then ``done`` succeeds like any event."""
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
