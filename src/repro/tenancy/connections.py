"""Connection management: pooled, leased, capped QPs per tenant.

Section III-D shows why all-to-all QP meshes do not scale: every live RC
connection occupies on-NIC SRAM, and past the QP-cache capacity the
device thrashes (modeled in :mod:`repro.hw.rnic` as translation-cache
displacement).  The ConnectionManager bounds that state: at most
``qp_cap_per_tenant`` live QPs per tenant, leased per
``(tenant, local machine, remote machine)`` pair and reused across ops;
when a tenant needs a connection beyond its cap, the least recently used
*idle* QP is torn down first.

A leased QP is pinned (never evicted) until every lease on it is
released; leasing is instantaneous in simulated time — connection setup
cost is not modeled, only connection *state* pressure.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.params import ServiceConfig
from repro.verbs.qp import QueuePair
from repro.verbs.verbs import RdmaContext

__all__ = ["ConnectionManager"]


class _PoolEntry:
    __slots__ = ("qp", "tenant", "key", "leases", "last_used")

    def __init__(self, qp: QueuePair, tenant: str, key: tuple, now: float):
        self.qp = qp
        self.tenant = tenant
        self.key = key
        self.leases = 0
        self.last_used = now


class ConnectionManager:
    """Pools QPs per (tenant, local, remote) with a per-tenant cap."""

    def __init__(self, ctx: RdmaContext, config: ServiceConfig):
        self.ctx = ctx
        self.sim = ctx.sim
        self.cap = config.qp_cap_per_tenant
        self._config = config
        self._pool: dict[tuple, _PoolEntry] = {}
        self._by_qp: dict[int, _PoolEntry] = {}
        #: ``ctx.qps_destroyed`` when the pool last pruned: no QP can
        #: have died behind the pool's back while it still matches.
        self._pruned_at = ctx.qps_destroyed
        names = [t.name for t in config.tenants]
        self.created = {n: 0 for n in names}
        self.reused = {n: 0 for n in names}
        self.evicted = {n: 0 for n in names}

    # -- queries ------------------------------------------------------------
    def live_qps(self, tenant: str) -> int:
        self._prune_destroyed()
        return sum(1 for e in self._pool.values() if e.tenant == tenant)

    def _prune_destroyed(self) -> None:
        """Forget QPs destroyed behind the pool's back (``ctx.destroy_qp``
        on a pooled QP).  They hold no on-NIC state, so they must not count
        against the cap, be picked as LRU victims, or tally as evictions."""
        self._pruned_at = self.ctx.qps_destroyed
        dead = [e for e in self._pool.values() if e.qp.destroyed]
        for e in dead:
            del self._pool[e.key]
            del self._by_qp[e.qp.qp_id]

    # -- leasing ------------------------------------------------------------
    def lease(self, tenant: str, local: int, remote: int,
              **create_kwargs) -> QueuePair:
        """A connected QP for this (tenant, machine pair); creates one —
        evicting the tenant's LRU idle QP if at the cap — or reuses the
        pooled one.  Balance every lease with :meth:`release`."""
        if tenant not in self.created:
            self._config.tenant(tenant)   # raises KeyError: unknown
        if self.ctx.qps_destroyed != self._pruned_at:
            self._prune_destroyed()  # only a destroy can leave a dead entry
        key = (tenant, local, remote,
               tuple(sorted(create_kwargs.items())) if create_kwargs else ())
        entry = self._pool.get(key)
        if entry is not None:
            entry.leases += 1
            entry.last_used = self.sim.now
            self.reused[tenant] += 1
            return entry.qp
        if self.live_qps(tenant) >= self.cap:
            self._evict_lru_idle(tenant)
        qp = self.ctx.create_qp(local, remote, **create_kwargs)
        qp.tenant = tenant
        qp.trace_tags = {**(qp.trace_tags or {}), "tenant": tenant}
        entry = _PoolEntry(qp, tenant, key, self.sim.now)
        entry.leases = 1
        self._pool[key] = entry
        self._by_qp[qp.qp_id] = entry
        self.created[tenant] += 1
        return qp

    def release(self, qp: QueuePair) -> None:
        """Return a lease; the QP stays pooled (idle) for reuse."""
        entry = self._by_qp.get(qp.qp_id)
        if entry is None:
            raise KeyError(f"QP {qp.qp_id} is not pool-managed")
        if entry.leases <= 0:
            raise RuntimeError(f"QP {qp.qp_id} released more than leased")
        entry.leases -= 1
        entry.last_used = self.sim.now

    # -- eviction -----------------------------------------------------------
    def _evict_lru_idle(self, tenant: str) -> None:
        self._prune_destroyed()
        candidates = [e for e in self._pool.values()
                      if e.tenant == tenant and e.leases == 0
                      and not e.qp.outstanding]
        if not candidates:
            raise RuntimeError(
                f"tenant {tenant}: connection cap {self.cap} reached and "
                "every pooled QP is leased or busy — release leases or "
                "raise qp_cap_per_tenant")
        victim = min(candidates, key=lambda e: (e.last_used, e.qp.qp_id))
        self._drop(victim)
        self.evicted[tenant] += 1

    def evict_idle(self, older_than_ns: Optional[float] = None) -> int:
        """Tear down idle QPs (optionally only those idle for at least
        ``older_than_ns``); returns the number evicted."""
        self._prune_destroyed()
        now = self.sim.now
        victims = [e for e in self._pool.values()
                   if e.leases == 0 and not e.qp.outstanding
                   and (older_than_ns is None
                        or now - e.last_used >= older_than_ns)]
        for e in victims:
            self._drop(e)
            self.evicted[e.tenant] += 1
        return len(victims)

    def _drop(self, entry: _PoolEntry) -> None:
        del self._pool[entry.key]
        del self._by_qp[entry.qp.qp_id]
        self.ctx.destroy_qp(entry.qp)
