"""Queue pairs: posting, transport state and the data plane.

``post_send`` hands a work request to the hardware and returns an event
that fires with the :class:`Completion`.  The simulator's verbs lane
(:mod:`repro.verbs.express`, on every fabric) books the WR's timeline,
which follows the paper's end-to-end decomposition (Section II-B3/B4):

1. RNIC DMA-reads the WQE (and the payload, if not inlined) over PCIe,
   paying QPI penalties for cross-socket buffers;
2. the requester execution unit processes the WQE — translation-cache
   lookups for every touched page, per-SGE gather overhead, then
   ``max(processing, wire serialization)`` (packet throttling);
3. the fabric adds switch+wire latency (per hop, with queueing, ECN
   marks and tail drops, on a multi-switch fabric);
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
``RdmaContext.reconnect_qp`` (RESET -> RTS, optionally on other ports),
which ``RdmaContext.recover_qp``, the one recovery path, runs once the
flushes have drained.
With no loss faults injected the retry layer adds no events, rng draws,
or timeouts — sunny-path schedules are bit-identical to a loss-free build.

The QP keeps what the lane and the stepped reference
(:mod:`repro.check.stepped`) share: the transport timer
(``_retrans_wait_ns``), WQE sizes, pinned routes and the data plane
(``_apply_*``).
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.hw.machine import Machine
from repro.hw.rnic import RnicPort
from repro.sim import Event, Simulator, Store
from repro.verbs.cq import CompletionQueue
from repro.verbs.types import Completion, CompletionStatus, Opcode, WorkRequest

__all__ = ["QPState", "QueuePair", "tally"]


class QPState(enum.Enum):
    """RC queue-pair states (the modeled subset of the ibverbs machine).

    Fresh QPs are born RTS (the INIT/RTR handshake is collapsed into
    ``RdmaContext.create_qp``).  A fatal transport error moves RTS -> ERR;
    recovery is ERR -> RESET -> RTS via ``RdmaContext.recover_qp``.
    """

    RESET = "reset"
    RTS = "rts"
    ERR = "error"

_qp_ids = itertools.count(1)


#: Size of one work-queue entry in host memory (ConnectX-3 uses 64 B
#: squashed WQEs for short SGLs; each extra SGE adds a 16 B segment).
WQE_BYTES = 64
SGE_SEG_BYTES = 16


class _Tally:
    """Process-wide counters, held on an instance rather than a class: a
    write to a class attribute invalidates the class's type version and
    deoptimizes every specialized attribute access on its instances."""

    __slots__ = ("completions", "stepped")

    def __init__(self) -> None:
        self.completions = 0
        #: WRs the stepped reference ran (:mod:`repro.check.stepped`,
        #: monotonic); the lane itself counts nothing.
        self.stepped = 0


#: Completed WRs across every QP and simulator, both lanes (monotonic).
#: The perf harness divides dispatched events by this to track events/op
#: — the fusion factor the express lane is gated on.
tally = _Tally()


class QueuePair:
    """An RC connection between a local port and a remote port."""

    #: Default send-queue depth (outstanding WRs before posting fails with
    #: the verbs-equivalent of ENOMEM), a typical RC QP configuration.
    DEFAULT_MAX_SEND_WR = 256

    #: The pending ``RdmaContext.reconnect_qp`` event while the QP is in
    #: RESET; None otherwise.  A class default, not set in ``__init__``:
    #: ``__init__`` already fills the attributes CPython 3.11 keeps
    #: inline (29), and one more gives every QP a separate ``__dict__``
    #: object, which ``cycles_per_op`` counts in the rig's cycles.
    reconnecting: Optional[Event] = None

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
        # the machine, so the per-opcode execution-unit costs never
        # change — build them once instead of per post.
        p = local_machine.params
        self._params = p
        self._exec_ns = {
            Opcode.WRITE: p.exec_write_ns,
            Opcode.SEND: p.exec_write_ns,
            Opcode.READ: p.exec_read_ns,
            Opcode.CAS: p.exec_write_ns,
            Opcode.FAA: p.exec_write_ns,
        }
        self._resolve_routes()

    def _resolve_routes(self) -> None:
        """Pin this connection's fabric paths.  ECMP hashes the source
        and destination machines and the flow (the QP id), so a port
        rebind on the same machines keeps both routes.

        Called at construction and again by ``RdmaContext.reconnect_qp``.
        On the default single-switch fabric both routes are *plain*
        (``links == ()``): one fixed crossbar delay each way.  Queued
        fabrics pin one forward and one reverse path; a retransmission
        re-salts the forward hash (flow ``qp_id + 131 * losses``) to
        route around the congested or dead path."""
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
        """RESET -> RTS (service restored); drops the reconnect event,
        so no QP <-> event cycle outlives it."""
        if self.state is not QPState.RESET:
            raise RuntimeError(
                f"QP {self.qp_id}: to_rts() requires RESET "
                f"(state={self.state.value})")
        self.state = QPState.RTS
        self.reconnecting = None
        self.reconnects += 1
        check = self.sim.check
        if check is not None:
            check.on_qp_state(self, QPState.RESET, QPState.RTS)

    # ------------------------------------------------------------------ API
    def post_send(self, wr: WorkRequest) -> Event:
        """Hand one WR to the hardware; returns its completion event."""
        wr.validate()
        if (self.state is not QPState.RTS or self.destroyed
                or self.posted - self.completed >= self.max_send_wr):
            self._require_postable()
            self._check_sq_room(1)
            if self.state is QPState.ERR:
                return self._flush_post(wr)
        done = Event(self.sim)
        prev, self._last_completion = self._last_completion, done
        self.posted += 1
        check = self.sim.check
        if check is not None:
            check.on_posted(self, wr)
        self.sim.express.post(self, wr, done, prev)
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
        sim.express.post_batch(self, wrs, events, prev)
        return events

    def recv(self) -> Event:
        """Event carrying the next inbound SEND as a Completion."""
        return self.recv_queue.get()

    # -------------------------------------------------------------- pipeline
    def _wqe_bytes(self, wr: WorkRequest) -> int:
        return WQE_BYTES + (wr.n_sge - 1) * SGE_SEG_BYTES

    def _retrans_wait_ns(self, losses: int) -> float:
        """Transport timer for the ``losses``-th consecutive silence:
        truncated exponential backoff off ``retrans_timeout_ns``."""
        p = self._params
        return min(p.retrans_timeout_ns * p.retrans_backoff ** (losses - 1),
                   p.retrans_timeout_cap_ns)

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
