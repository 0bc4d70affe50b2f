"""The service plane: glue between tenants and the verbs layer.

:class:`ServicePlane` owns the four tenancy components (connections, QoS,
admission, metrics) and attaches itself to an :class:`RdmaContext`.  From
then on, any :class:`~repro.verbs.verbs.Worker` posting to a
tenant-tagged QP is mediated:

1. the worker pays its normal WQE-prep + doorbell CPU cost;
2. **admission** — over the inflight window or queue bound, the op
   completes immediately with ``CompletionStatus.REJECTED``;
3. **scheduling** — the op waits in its tenant's WFQ queue (token-bucket
   gated) until granted a service slot; ops whose deadline lapses while
   queued are shed with the same explicit status;
4. the op runs the ordinary hardware pipeline; on completion the slot is
   returned, per-tenant SLO metrics are recorded, and the completion
   reaches the waiter inside that same dispatch (``Event.fire``: a
   decided outcome takes no second dispatch).  A REJECTED completion,
   from admission or a deadline shed, is delivered the same way.  Grants
   stay scheduled.

Ops on untenanted QPs bypass the plane entirely — attaching a plane
changes nothing for existing single-tenant code.

Tenant-facing sugar lives in :class:`TenantSession`: a Worker bound to a
tenant that leases pooled connections per remote machine on demand.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.hw.params import ServiceConfig
from repro.sim import Event
from repro.tenancy.admission import REJECT_DEADLINE, AdmissionController
from repro.tenancy.connections import ConnectionManager
from repro.tenancy.metrics import SLOMetrics
from repro.tenancy.qos import SERVICE_UNIT_BYTES, QoSScheduler
from repro.verbs.qp import QPState, QueuePair
from repro.verbs.types import Completion, CompletionStatus, Opcode, Sge, WorkRequest
from repro.verbs.verbs import RdmaContext, Worker

__all__ = ["ServicePlane", "TenantSession"]


class ServicePlane:
    """Multi-tenant mediation layer over one RDMA context."""

    def __init__(self, ctx: RdmaContext, config: ServiceConfig):
        config.validate()
        self.ctx = ctx
        self.sim = ctx.sim
        self.config = config
        names = [t.name for t in config.tenants]
        self.qos = QoSScheduler(ctx.sim, config)
        self.admission = AdmissionController(ctx.sim, config)
        self.metrics = SLOMetrics(ctx.sim, names)
        self.connections = ConnectionManager(ctx, config)
        self.attach()

    # -- lifecycle ----------------------------------------------------------
    def attach(self) -> None:
        if self.ctx.service_plane not in (None, self):
            raise RuntimeError("context already has a service plane attached")
        self.ctx.service_plane = self

    def detach(self) -> None:
        if self.ctx.service_plane is self:
            self.ctx.service_plane = None

    def adopt(self, qp: QueuePair, tenant: str) -> None:
        """Bring an externally created QP under this plane: ops posted on
        it are scheduled/admitted as ``tenant`` (used to run existing
        apps — e.g. the hashtable front-ends — under tenancy).  Adopted
        QPs are not pooled and never evicted."""
        self.config.tenant(tenant)
        qp.tenant = tenant
        qp.trace_tags = {**(qp.trace_tags or {}), "tenant": tenant}

    def session(self, tenant: str, machine: int, socket: int = 0,
                name: str = "") -> "TenantSession":
        return TenantSession(self, tenant, machine, socket, name=name)

    # -- submission path (Worker.post/post_batch/execute, KvFrontDoor) --------
    @staticmethod
    def _cost(wr: WorkRequest) -> float:
        return max(1.0, wr.total_length / SERVICE_UNIT_BYTES)

    def _rejected_completion(self, wr: WorkRequest) -> Completion:
        return Completion(wr_id=wr.wr_id, opcode=wr.opcode,
                          status=CompletionStatus.REJECTED,
                          timestamp_ns=self.sim.now, byte_len=0)

    def _rejected_event(self, wr: WorkRequest) -> Event:
        # Already processed: the waiter's yield continues at once.
        return Event(self.sim).fire(self._rejected_completion(wr))

    def _flushed_completion(self, wr: WorkRequest) -> Completion:
        # An op granted a slot while its pooled QP is mid-reconnect
        # (RESET): posting would be a verbs usage error, so the plane
        # fails it the way an ERR-state QP would have — the tenant sees
        # a transport error, not a crashed dispatch round.
        return Completion(wr_id=wr.wr_id, opcode=wr.opcode,
                          status=CompletionStatus.WR_FLUSH_ERR,
                          timestamp_ns=self.sim.now, byte_len=0)

    def submit(self, qp: QueuePair, wr: WorkRequest) -> Event:
        """Queue one op; returns its completion event (which may already
        carry a REJECTED completion)."""
        tenant = qp.tenant
        ok, reason = self.admission.try_admit(
            tenant, self.qos.queue_depth(tenant))
        if not ok:
            self.metrics.record_reject(tenant, reason)
            return self._rejected_event(wr)
        done = Event(self.sim)
        t0 = self.sim.now

        def completed(ev: Event) -> None:
            self.qos.done(tenant)
            self._finish_op(tenant, wr, t0, ev.value, done)

        def grant(granted: bool) -> None:
            if not granted:
                self._shed(tenant, [wr], [done])
            elif qp.state is QPState.RESET:
                self.qos.done(tenant)
                self._finish_op(tenant, wr, t0, self._flushed_completion(wr),
                                done)
            else:
                qp.post_send(wr).add_callback(completed)

        self.qos.submit(tenant, self._cost(wr),
                        self.admission.deadline_for(tenant), grant)
        return done

    def submit_batch(self, qp: QueuePair,
                     wrs: list[WorkRequest]) -> list[Event]:
        """Queue a doorbell batch as one scheduling unit (its WFQ cost is
        the batch total); admission admits or rejects it atomically."""
        if not wrs:
            raise ValueError("empty doorbell batch")
        tenant = qp.tenant
        ok, reason = self.admission.try_admit(
            tenant, self.qos.queue_depth(tenant), n=len(wrs))
        if not ok:
            for _ in wrs:
                self.metrics.record_reject(tenant, reason)
            return [self._rejected_event(w) for w in wrs]
        dones = [Event(self.sim) for _ in wrs]
        t0 = self.sim.now

        def grant(granted: bool) -> None:
            if not granted:
                self._shed(tenant, wrs, dones)
                return
            if qp.state is QPState.RESET:
                for w, d in zip(wrs, dones):
                    self._finish_op(tenant, w, t0, self._flushed_completion(w), d)
                self.qos.done(tenant)
                return
            events = qp.post_send_batch(wrs)
            for w, ev, d in zip(wrs, events, dones):
                ev.add_callback(lambda e, w=w, d=d: self._finish_op(
                    tenant, w, t0, e.value, d))
            # The slot returns after the last WR's own completion.
            events[-1].add_callback(lambda e: self.qos.done(tenant))

        self.qos.submit(tenant, sum(self._cost(w) for w in wrs),
                        self.admission.deadline_for(tenant), grant)
        return dones

    def _shed(self, tenant: str, wrs: list[WorkRequest],
              dones: list[Event]) -> None:
        """Deadline-shed ops: release their admission slots and complete
        them REJECTED."""
        self.admission.release(tenant, len(wrs))
        for w, d in zip(wrs, dones):
            self.metrics.record_reject(tenant, REJECT_DEADLINE)
            d.fire(self._rejected_completion(w))

    def _finish_op(self, tenant: str, wr: WorkRequest, t0: float,
                   comp: Completion, done: Event) -> None:
        self.admission.release(tenant)
        self.metrics.record_op(tenant, self.sim.now - t0, wr.total_length,
                               wr.opcode.value, status=comp.status.value,
                               retries=comp.retries)
        done.fire(comp)


class TenantSession:
    """One tenant's client thread: a Worker plus on-demand pooled QPs."""

    def __init__(self, plane: ServicePlane, tenant: str, machine: int,
                 socket: int = 0, name: str = ""):
        plane.config.tenant(tenant)
        self.plane = plane
        self.tenant = tenant
        self.machine_id = machine
        self.worker = Worker(plane.ctx, machine, socket,
                             name=name or f"{tenant}.m{machine}.s{socket}")

    def execute(self, remote: int, wr: WorkRequest,
                **lease_kwargs: Any) -> Generator:
        """Lease a pooled QP to ``remote``, run ``wr`` through the plane,
        release the lease; returns the Completion (possibly REJECTED)."""
        qp = self.plane.connections.lease(
            self.tenant, self.machine_id, remote, **lease_kwargs)
        try:
            comp = yield from self.worker.execute(qp, wr)
        finally:
            self.plane.connections.release(qp)
        return comp

    # -- one-sided sugar -----------------------------------------------------
    # Same slice-based src=/dst= form as Worker.write.
    def write(self, remote: int, *, src=None, dst=None,
              move_data: bool = True, wr_id: int = 0) -> Generator:
        loc, rem = self.worker._resolve_transfer("write", src, dst)
        wr = WorkRequest(Opcode.WRITE, wr_id=wr_id,
                         sgl=[Sge(loc.mr, loc.offset, loc.length)],
                         remote_mr=rem.mr, remote_offset=rem.offset,
                         move_data=move_data)
        return (yield from self.execute(remote, wr))
