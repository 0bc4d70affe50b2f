"""Per-tenant QoS scheduling in front of the RNIC execution units.

Two cooperating mechanisms:

* **Weighted fair queuing** (start-time fair queuing): each op is stamped
  at arrival with a frozen virtual start tag ``S = max(V, F_tenant)``,
  advancing the tenant's finish tag by ``cost/weight``; each grant goes
  to the smallest tag and sets ``V`` to it.  Backlogged tenants thus
  share service in proportion to their weights regardless of how hard
  each one pushes, and a light tenant's tag can never be undercut
  forever.  ``policy="fifo"`` degrades to global arrival order — the
  unisolated baseline where a noisy neighbour's backlog delays everyone.
* **Token buckets**: a tenant with ``rate_mops`` set accrues op tokens at
  that rate (burst-capped); its queue head is not eligible for dispatch
  until a token is available, bounding the tenant's absolute rate even
  when the fabric is otherwise idle.

The scheduler paces a bounded window of ``scheduler_slots`` ops between
*grant* and *completion*; that window is what creates the ordering
authority — without it every op would be released to the hardware
immediately and arrival order would decide everything.

Grants are made by a **dispatch round**: one callback scheduled with
``Simulator.call_tail`` at the current instant whenever a submit (or a
completion with work still queued) may allow one; the engine runs it in
place when it is provably the next dispatch.  The round grants
until the slots are full or no queue head is eligible, so it sees every
arrival and completion already scheduled at that instant.  A
rate-limited head arms a single eligibility timer for the soonest token;
no process ever runs.

Costs are measured in 64-byte service units (``max(1, bytes/64)``), so
WFQ apportions *bandwidth*, not just op count; token buckets meter whole
ops, matching how rate SLAs are usually written.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.hw.params import ServiceConfig
from repro.sim import Event, Simulator

__all__ = ["QoSScheduler", "SERVICE_UNIT_BYTES"]

#: One WFQ cost unit: ops are charged ``max(1, bytes / 64)`` units.
SERVICE_UNIT_BYTES = 64


class _TokenBucket:
    """Lazy token bucket: tokens accrue as simulated time passes."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate_mops: float, burst_ops: int):
        self.rate = rate_mops / 1000.0     # MOPS -> ops per ns
        self.burst = float(burst_ops)
        self.tokens = float(burst_ops)
        self.stamp = 0.0

    def _refill(self, now: float) -> None:
        self.tokens = min(self.burst,
                          self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now

    def eligible_at(self, now: float) -> float:
        """Earliest time one op token is available."""
        self._refill(now)
        if self.tokens >= 1.0:
            return now
        return now + (1.0 - self.tokens) / self.rate

    def consume(self, now: float) -> None:
        self._refill(now)
        self.tokens -= 1.0


class _Request:
    __slots__ = ("grant", "deadline", "seq", "tag")

    def __init__(self, grant: Callable[[bool], None],
                 deadline: Optional[float], seq: int, tag: float):
        self.grant = grant
        self.deadline = deadline
        self.seq = seq
        self.tag = tag          # virtual start tag, stamped at arrival


class QoSScheduler:
    """Grants pending ops in WFQ (or FIFO) order, rate-capped per tenant.

    ``submit`` queues an op with a ``grant(bool)`` callback.  A dispatch
    round later calls it with ``True`` when the op may proceed to the
    hardware, or ``False`` if it was shed because its deadline had
    already passed while queued.  The winner of each grant must call
    :meth:`done` when its op completes to return the service slot.

    At most one round is pending at a time; it runs at the instant it
    was scheduled, after every event already scheduled there.  A queue
    head held back by its token bucket arms one eligibility timer for
    the soonest token, re-armed only when a sooner time appears.
    """

    def __init__(self, sim: Simulator, config: ServiceConfig):
        self.sim = sim
        self.policy = config.policy
        self.slots = config.scheduler_slots
        self._specs = {t.name: t for t in config.tenants}
        self._queues: dict[str, deque[_Request]] = {
            t.name: deque() for t in config.tenants}
        self._buckets: dict[str, Optional[_TokenBucket]] = {
            t.name: (_TokenBucket(t.rate_mops, t.burst_ops)
                     if t.rate_mops is not None else None)
            for t in config.tenants}
        self._finish = {t.name: 0.0 for t in config.tenants}
        self._vtime = 0.0
        self._seq = 0
        self.in_service = 0
        #: True from scheduling a dispatch round until it has run.
        self._round_pending = False
        #: The armed eligibility timer and its time, or None.
        self._timer: Optional[Event] = None
        self._timer_at = 0.0
        # observability
        self.grants = {t.name: 0 for t in config.tenants}
        self.sheds = {t.name: 0 for t in config.tenants}

    # -- client side --------------------------------------------------------
    def queue_depth(self, tenant: str) -> int:
        return len(self._queues[tenant])

    def submit(self, tenant: str, cost: float, deadline: Optional[float],
               grant: Callable[[bool], None]) -> None:
        """Enqueue one op; a dispatch round calls ``grant(True)`` when it
        is granted or ``grant(False)`` when it is deadline-shed while
        queued."""
        if tenant not in self._queues:
            raise KeyError(f"unknown tenant {tenant!r} "
                           f"(configured: {sorted(self._queues)})")
        if cost <= 0:
            raise ValueError(f"cost must be positive: {cost}")
        self._seq += 1
        # Start-time fair queuing: the virtual tag is stamped at ARRIVAL
        # and frozen — S = max(V, tenant's last finish), F = S + cost/w.
        # (Recomputing tags at dispatch time would let a heavy tenant's
        # head perpetually undercut a light one's — starvation.)  A shed
        # op still advanced its tenant's finish tag: deadline misses are
        # charged, not refunded.
        if self.policy == "fifo":
            tag = float(self._seq)
        else:
            tag = max(self._vtime, self._finish[tenant])
            self._finish[tenant] = tag \
                + cost / self._specs[tenant].weight
        self._queues[tenant].append(_Request(grant, deadline, self._seq, tag))
        if self.in_service < self.slots:
            self._kick()

    def done(self, tenant: str) -> None:
        """Return the service slot of a granted op (call on completion)."""
        if self.in_service <= 0:
            raise RuntimeError("done() without a granted op in service")
        self.in_service -= 1
        if any(self._queues.values()):
            self._kick()

    # -- dispatch -----------------------------------------------------------
    def _kick(self) -> None:
        """Schedule a dispatch round at this instant unless one is pending."""
        if not self._round_pending:
            self._round_pending = True
            self.sim.call_tail(self.sim.now, self._round)

    def _pick(self, now: float):
        """(tenant, key) of the best eligible queue head, plus the
        earliest time a rate-limited head becomes eligible."""
        best = None
        best_key = None
        soonest = None
        for name, q in self._queues.items():
            if not q:
                continue
            bucket = self._buckets[name]
            if bucket is not None:
                at = bucket.eligible_at(now)
                if at > now:
                    soonest = at if soonest is None else min(soonest, at)
                    continue
            head = q[0]
            key = (head.tag, head.seq)
            if best is None or key < best_key:
                best, best_key = name, key
        return best, soonest

    def _round(self, _ev: Event) -> None:
        sim = self.sim
        now = sim.now
        while self.in_service < self.slots:
            tenant, soonest = self._pick(now)
            if tenant is None:
                if soonest is not None:
                    self._arm(soonest)
                break
            req = self._queues[tenant].popleft()
            if req.deadline is not None and now > req.deadline:
                self.sheds[tenant] += 1
                req.grant(False)
                continue
            bucket = self._buckets[tenant]
            if bucket is not None:
                bucket.consume(now)
                check = sim.check
                if check is not None:
                    check.on_bucket_consume(tenant, bucket)
            if self.policy != "fifo":
                # Virtual time = start tag of the op entering service.
                self._vtime = max(self._vtime, req.tag)
            self.in_service += 1
            self.grants[tenant] += 1
            req.grant(True)
        # Cleared last: a done() from inside a grant callback needs no
        # second round — this loop already sees the freed slot.
        self._round_pending = False

    def _arm(self, at: float) -> None:
        """Wake a round at ``at`` unless a timer already fires sooner."""
        if self._timer is not None:
            if self._timer_at <= at:
                return
            self._timer.cancel()
        self._timer = self.sim.call_at(at, self._eligible)
        self._timer_at = at

    def _eligible(self, _ev: Event) -> None:
        self._timer = None
        self._kick()
