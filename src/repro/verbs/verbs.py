"""The context (device/PD/MR/QP management) and the Worker (a CPU thread).

:class:`RdmaContext` owns registration and connection bookkeeping for a
cluster.  :class:`Worker` represents one CPU thread pinned to a (machine,
socket): all software costs — WQE preparation, doorbell MMIO (with QPI
penalty when ringing a cross-socket port), memcpy gathers, CQE polling —
are charged to the worker's timeline, so software-heavy strategies (SP)
and hardware-heavy ones (SGL) trade off exactly as in Section III-A.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Union

from repro.hw.cluster import Cluster
from repro.hw.dram import AccessPattern
from repro.memory.allocator import RegionAllocator
from repro.sim import Event, Simulator
from repro.verbs.cq import CompletionQueue, reap
from repro.verbs.express import ExpressState
from repro.verbs.mr import MemoryRegion, MrSlice
from repro.verbs.qp import QPState, QueuePair
from repro.verbs.types import (CompletionError, Completion, Opcode, Sge,
                               WorkRequest)

__all__ = ["RdmaContext", "Worker"]

#: What read/write accept for ``src=``/``dst=``: a slice, or a bare
#: region meaning "all of it".
Sliceable = Union[MemoryRegion, MrSlice]


def _as_slice(buf: Sliceable, role: str) -> MrSlice:
    if isinstance(buf, MrSlice):
        return buf
    if isinstance(buf, MemoryRegion):
        return MrSlice(buf, 0, buf.size)
    raise TypeError(
        f"{role} must be a MemoryRegion or MrSlice, not {type(buf).__name__}")


class RdmaContext:
    """Cluster-wide RDMA bookkeeping: memory registration and QPs."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.params = cluster.params
        self.allocators = [RegionAllocator(cluster.params, m.machine_id)
                           for m in cluster]
        self.regions: list[MemoryRegion] = []
        self.qps: list[QueuePair] = []
        #: QPs torn down by :meth:`destroy_qp` so far (lets a QP pool
        #: skip its scan for dead entries while nothing died).
        self.qps_destroyed = 0
        self.tracer = None
        #: Multi-tenant service plane (repro.tenancy.ServicePlane); when
        #: attached, Workers route ops on tenant-tagged QPs through its
        #: admission control and QoS scheduler.
        self.service_plane = None
        # The verbs lane, for every topology: attached here (not in
        # hw.Cluster) so the hw layer stays import-free of verbs.
        ExpressState.attach(cluster)

    def attach_tracer(self, tracer) -> None:
        """Enable per-op stage tracing (repro.verbs.trace.OpTracer) on all
        current and future QPs of this context.  Tracing does not change
        which lane a post takes: the express lane and the stepped
        pipeline stamp the same per-stage records.  WRs posted before the
        attach stay untraced."""
        self.tracer = tracer
        for qp in self.qps:
            qp.tracer = tracer

    # -- memory -------------------------------------------------------------
    def register(self, machine: int, size: int, socket: int = 0) -> MemoryRegion:
        """Allocate and register ``size`` bytes on a machine's socket."""
        buf = self.allocators[machine].allocate(size, socket)
        mr = MemoryRegion(buf, self.params.translation_page_bytes)
        self.regions.append(mr)
        return mr

    # -- connections ----------------------------------------------------------
    def create_qp(self, local: int, remote: int, local_port: int = 0,
                  remote_port: int = 0, sq_socket: Optional[int] = None,
                  cq: Optional[CompletionQueue] = None,
                  recv_queue=None,
                  max_send_wr: int = QueuePair.DEFAULT_MAX_SEND_WR
                  ) -> QueuePair:
        """Connect an RC queue pair between two machines' ports."""
        lm = self.cluster[local]
        rm = self.cluster[remote]
        if local == remote:
            raise ValueError("loopback QPs are not modeled; use DramModel")
        qp = QueuePair(self.sim, lm, rm, lm.port(local_port),
                       rm.port(remote_port), sq_socket=sq_socket, cq=cq,
                       recv_queue=recv_queue, max_send_wr=max_send_wr)
        qp.tracer = self.tracer
        self.qps.append(qp)
        # Connection state occupies metadata SRAM on both endpoint RNICs
        # (Section II-B2/III-D); the devices repartition accordingly.
        lm.rnic.qp_attached()
        rm.rnic.qp_attached()
        check = self.sim.check
        if check is not None:
            check.on_qp_created(qp)
        return qp

    def destroy_qp(self, qp: QueuePair) -> None:
        """Tear a QP down: releases its SRAM footprint on both endpoint
        RNICs and evicts its cached context.  Idempotent; the QP must have
        no outstanding WRs."""
        if qp.destroyed:
            return
        if qp.outstanding:
            raise RuntimeError(
                f"cannot destroy QP {qp.qp_id}: {qp.outstanding} WRs "
                "outstanding")
        qp.destroyed = True
        self.qps_destroyed += 1
        self.qps.remove(qp)
        for rnic in (qp.local_machine.rnic, qp.remote_machine.rnic):
            rnic.qp_detached()
            rnic.qp_cache.invalidate(qp.qp_id)
        check = self.sim.check
        if check is not None:
            check.on_qp_destroyed(qp)

    def reconnect_qp(self, qp: QueuePair,
                     local_port: Optional[int] = None,
                     remote_port: Optional[int] = None) -> Event:
        """Cycle an errored QP back into service: ERR → RESET → RTS.

        Models the connection-manager round trip real stacks need to
        re-arm a broken RC connection: the QP must already be drained (all
        outstanding WRs flushed), its state is reset, optionally the
        endpoints are re-bound to different ports (``local_port`` /
        ``remote_port`` indices — dual-port failover around a dead link),
        the cached QP contexts on both RNICs are invalidated, and after
        ``params.qp_reconnect_ns`` the QP transitions to RTS.

        Returns the event that fires once the QP is postable again::

            yield ctx.reconnect_qp(qp, local_port=1)
            # qp.state is QPState.RTS here

        The event stays on ``qp.reconnecting`` until it fires, so a
        :class:`Worker` posting to the QP meanwhile waits for it.
        Recovery after a failed completion goes through
        :meth:`recover_qp`; call this directly only to move ports.
        """
        qp.reset()
        if local_port is not None:
            qp.local_port = qp.local_machine.port(local_port)
        if remote_port is not None:
            qp.remote_port = qp.remote_machine.port(remote_port)
        # Re-resolve the fabric routes.  ECMP hashes only (src machine,
        # dst machine, flow), so a port rebind keeps the same routes; only
        # a retransmission's re-salt moves a WR onto another path.
        qp._resolve_routes()
        for rnic in (qp.local_machine.rnic, qp.remote_machine.rnic):
            rnic.qp_cache.invalidate(qp.qp_id)
        ev = self.sim.timeout(self.params.qp_reconnect_ns)
        ev.add_callback(lambda _e: qp.to_rts())
        qp.reconnecting = ev
        return ev

    def recover_qp(self, qp: QueuePair) -> Generator:
        """Bring ``qp`` back after a failed completion; the one recovery
        path for every caller.

        A failed completion means the QP is in ERR (or another handle
        sharing it is already reconnecting it).  While it is in ERR
        with WRs outstanding, their flushes are waited out, polled every
        ``retrans_timeout_ns``; then, if it is still in ERR, it is
        reconnected (:meth:`reconnect_qp`) and the generator returns
        True once it is in RTS.  Otherwise it returns False at once:
        the QP is in RTS, or in RESET under another handle's reconnect,
        which a :class:`Worker` post waits for.  The failed op's replay
        is the caller's (only the caller knows if it is idempotent)::

            if not comp.ok:
                yield from ctx.recover_qp(qp)
        """
        while qp.state is QPState.ERR and qp.outstanding:
            yield self.sim.timeout(self.params.retrans_timeout_ns)
        if qp.state is not QPState.ERR:
            return False
        yield self.reconnect_qp(qp)
        return True


class Worker:
    """One CPU thread pinned to ``(machine, socket)``.

    Methods are generators to be driven inside a simulation process; each
    charges the appropriate CPU time before/after hardware interactions and
    tracks cumulative busy time for the CPU-utilization study (Fig 18).
    """

    def __init__(self, ctx: RdmaContext, machine: int, socket: int = 0,
                 name: str = ""):
        self.ctx = ctx
        self.sim = ctx.sim
        self.params = ctx.params
        self.machine = ctx.cluster[machine]
        self.machine_id = machine
        self.socket = socket
        self.name = name or f"w{machine}.{socket}"
        self.cpu_busy_ns = 0.0
        self.ops = 0
        # Hot-path constants: params are frozen and the worker never moves
        # sockets, so its MMIO-cost row and CPU costs are fixed for life.
        self.machine.topology._check(socket)
        self._mmio_row = self.machine.topology._mmio[socket]
        self._prep_ns = self.params.cpu_wqe_prep_ns
        self._poll_ns = self.params.cpu_poll_ns
        self._cqes = self.sim.cqes

    # -- CPU accounting -------------------------------------------------------
    def compute(self, ns: float) -> Generator:
        """Spend ``ns`` of CPU time."""
        if not ns >= 0:  # NaN fails too
            raise ValueError(f"compute: negative or NaN CPU time: {ns}")
        self.cpu_busy_ns += ns
        yield ns + 0.0  # coerce int ns: only floats ride the bare-delay lane

    def memcpy(self, nbytes: int, src_socket: Optional[int] = None,
               dst_socket: Optional[int] = None) -> Generator:
        """Copy a buffer locally (the SP gather step)."""
        cost = self.machine.dram.memcpy_ns(
            nbytes, self.socket,
            self.socket if src_socket is None else src_socket,
            self.socket if dst_socket is None else dst_socket)
        self.cpu_busy_ns += cost
        yield cost

    def local_write(self, nbytes: int, pattern: AccessPattern,
                    mem_socket: Optional[int] = None) -> Generator:
        cost = self.machine.dram.write_ns(
            nbytes, pattern, self.socket,
            self.socket if mem_socket is None else mem_socket)
        yield from self.compute(cost)

    def local_read(self, nbytes: int, pattern: AccessPattern,
                   mem_socket: Optional[int] = None) -> Generator:
        cost = self.machine.dram.read_ns(
            nbytes, pattern, self.socket,
            self.socket if mem_socket is None else mem_socket)
        yield from self.compute(cost)

    # -- posting ---------------------------------------------------------------
    def charge_post(self, qp: QueuePair, wr) -> float:
        """Charge this thread for posting ``wr`` (one WorkRequest, or a
        list of them rung with one doorbell); returns the cost to yield.

        CPU cost: WQE prep (+ a small per-extra-SGE build cost) per WR,
        plus one doorbell MMIO, with a QPI penalty if the QP's port hangs
        off another socket.  The only copy of the posting charge:
        :meth:`post`, :meth:`post_batch`, :meth:`execute` and callers
        that build their own WRs all pay through it.
        """
        if qp.local_machine is not self.machine:
            self._check_affinity(qp)
        prep_ns = self._prep_ns
        if isinstance(wr, WorkRequest):
            prep = prep_ns * (1 + 0.2 * (wr.n_sge - 1))
        else:
            prep = sum(prep_ns * (1 + 0.2 * (w.n_sge - 1)) for w in wr)
        cost = prep + self._mmio_row[qp.local_port.socket]
        self.cpu_busy_ns += cost
        return cost

    def charge_poll(self, completion: Completion) -> float:
        """Reap ``completion`` and charge this thread the CQE poll;
        returns the poll cost to yield.

        If the CQE still sits in a completion queue (the WR was signaled
        and no ``poll``/``wait()`` took it first) it leaves that queue
        and counts in its ``consumed``, so each CQE is reported once.
        This holds on both lanes, for flushed WRs, and for a tenanted op
        whose completion arrives through the service plane's own event
        (the same object).
        """
        reap(self._cqes, completion)
        poll = self._poll_ns
        self.cpu_busy_ns += poll
        return poll

    def post(self, qp: QueuePair, wr: WorkRequest) -> Generator:
        """Prep one WQE, ring the doorbell (:meth:`charge_post`); returns
        the completion event.

        On a tenant-tagged QP with a service plane attached, the op is
        handed to the plane instead of going straight to the hardware: it
        may queue behind the tenant's QoS share, or complete immediately
        with ``CompletionStatus.REJECTED`` if admission control sheds it.
        Otherwise, if another handle sharing the QP is reconnecting it
        (``qp.reconnecting``), the post waits for the QP to reach RTS.
        """
        yield self.charge_post(qp, wr)
        plane = self.ctx.service_plane
        if plane is not None and qp.tenant is not None:
            return plane.submit(qp, wr)
        if qp.reconnecting is not None:
            yield qp.reconnecting
        return qp.post_send(wr)

    def post_batch(self, qp: QueuePair, wrs: list[WorkRequest]) -> Generator:
        """Doorbell batching: k WQE preps but a single MMIO (Section III-A)."""
        yield self.charge_post(qp, wrs)
        plane = self.ctx.service_plane
        if plane is not None and qp.tenant is not None:
            return plane.submit_batch(qp, wrs)
        if qp.reconnecting is not None:
            yield qp.reconnecting
        return qp.post_send_batch(wrs)

    def wait(self, completion_event: Event,
             raise_on_error: bool = False) -> Generator:
        """Block on a completion, then reap it and pay the CQE poll cost
        (:meth:`charge_poll`).

        With ``raise_on_error`` an unsuccessful completion (retry
        exhaustion, flush, rejection) raises :class:`CompletionError`
        instead of returning — for callers with no retry logic of their
        own, so transport failures are never silently ignored.
        """
        completion: Completion = yield completion_event
        yield self.charge_poll(completion)
        self.ops += 1
        if raise_on_error and not completion.ok:
            raise CompletionError(completion)
        return completion

    def execute(self, qp: QueuePair, wr: WorkRequest,
                raise_on_error: bool = False) -> Generator:
        """Synchronous post + wait in one generator frame: the yields of
        :meth:`post` then :meth:`wait`, without nesting either."""
        yield self.charge_post(qp, wr)
        plane = self.ctx.service_plane
        if plane is not None and qp.tenant is not None:
            completion: Completion = yield plane.submit(qp, wr)
        else:
            if qp.reconnecting is not None:
                yield qp.reconnecting
            completion = yield qp.post_send(wr)
        yield self.charge_poll(completion)
        self.ops += 1
        if raise_on_error and not completion.ok:
            raise CompletionError(completion)
        return completion

    def _check_affinity(self, qp: QueuePair) -> None:
        if qp.local_machine is not self.machine:
            raise ValueError(
                f"worker on machine {self.machine_id} cannot post to a QP "
                f"of machine {qp.local_machine.machine_id}"
            )

    # -- one-sided convenience wrappers ---------------------------------------
    def _resolve_transfer(self, opname: str, src: Optional[Sliceable],
                          dst: Optional[Sliceable]
                          ) -> tuple[MrSlice, MrSlice]:
        """Normalize ``src=``/``dst=`` to ``(local, remote)`` slices: they
        name the two byte ranges by role (data flows src → dst)."""
        if src is None or dst is None:
            raise TypeError(f"Worker.{opname} requires both src= and dst=")
        s = _as_slice(src, "src")
        d = _as_slice(dst, "dst")
        if s.length != d.length:
            raise ValueError(
                f"Worker.{opname}: src is {s.length} bytes but dst is "
                f"{d.length}; slice both sides to the same length")
        # WRITE pushes local → remote; READ pulls remote → local.
        return (s, d) if opname == "write" else (d, s)

    def write(self, qp: QueuePair, *,
              src: Optional[Sliceable] = None,
              dst: Optional[Sliceable] = None,
              move_data: bool = True, signaled: bool = True,
              wr_id: int = 0, raise_on_error: bool = False) -> Generator:
        """RDMA WRITE: ``src`` (local slice) → ``dst`` (remote slice)."""
        local, remote = self._resolve_transfer("write", src, dst)
        wr = WorkRequest(
            Opcode.WRITE, wr_id=wr_id,
            sgl=[Sge(local.mr, local.offset, local.length)],
            remote_mr=remote.mr, remote_offset=remote.offset,
            move_data=move_data, signaled=signaled)
        return (yield from self.execute(qp, wr,
                                        raise_on_error=raise_on_error))

    def read(self, qp: QueuePair, *,
             src: Optional[Sliceable] = None,
             dst: Optional[Sliceable] = None,
             move_data: bool = True, signaled: bool = True,
             wr_id: int = 0, raise_on_error: bool = False) -> Generator:
        """RDMA READ: ``src`` (remote slice) → ``dst`` (local slice)."""
        local, remote = self._resolve_transfer("read", src, dst)
        wr = WorkRequest(
            Opcode.READ, wr_id=wr_id,
            sgl=[Sge(local.mr, local.offset, local.length)],
            remote_mr=remote.mr, remote_offset=remote.offset,
            move_data=move_data, signaled=signaled)
        return (yield from self.execute(qp, wr,
                                        raise_on_error=raise_on_error))

    def cas(self, qp: QueuePair, remote_mr: MemoryRegion, remote_offset: int,
            compare: int, swap: int, wr_id: int = 0) -> Generator:
        """Compare-and-swap; the returned completion's value is the OLD
        word, so success means ``completion.value == compare``."""
        wr = WorkRequest(Opcode.CAS, wr_id=wr_id, remote_mr=remote_mr,
                         remote_offset=remote_offset, compare=compare,
                         swap=swap)
        return (yield from self.execute(qp, wr))

    def faa(self, qp: QueuePair, remote_mr: MemoryRegion, remote_offset: int,
            add: int, wr_id: int = 0) -> Generator:
        """Fetch-and-add; completion.value is the pre-add value."""
        wr = WorkRequest(Opcode.FAA, wr_id=wr_id, remote_mr=remote_mr,
                         remote_offset=remote_offset, add=add)
        return (yield from self.execute(qp, wr))

    def send(self, qp: QueuePair, payload: Any, payload_bytes: int,
             wr_id: int = 0, *, wait: bool = True,
             raise_on_error: bool = False) -> Generator:
        """Two-sided SEND (channel semantics).

        ``wait=True`` blocks to completion and returns the
        :class:`Completion`.  ``wait=False`` posts unsignaled and returns
        the completion event instead — how servers keep responses off
        their critical path.
        """
        if wait:
            wr = WorkRequest(Opcode.SEND, wr_id=wr_id, payload=payload,
                             payload_bytes=payload_bytes)
            return (yield from self.execute(qp, wr,
                                            raise_on_error=raise_on_error))
        wr = WorkRequest(Opcode.SEND, wr_id=wr_id, payload=payload,
                         payload_bytes=payload_bytes, signaled=False)
        return (yield from self.post(qp, wr))

    def recv(self, qp: QueuePair) -> Generator:
        """Block until an inbound SEND arrives; pays the poll cost."""
        completion: Completion = yield qp.recv()
        yield from self.compute(self.params.cpu_poll_ns)
        return completion
