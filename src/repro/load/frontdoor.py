"""The serving-tier front door: a tenant KV client over the hashtable.

One :class:`KvFrontDoor` is one client machine's entry point to the
disaggregated hashtable: every GET/PUT is a single one-sided READ/WRITE
of the 64 B cold-table entry, mediated end-to-end by the tenancy plane
(admission window → WFQ/token-bucket scheduling → verbs), with an
optional :class:`~repro.load.cache.LeaseCache` absorbing hot reads
before they reach the wire.

Unlike the closed-loop :class:`~repro.apps.hashtable.frontend.FrontEnd`,
the front door never retries a rejected op — under open-loop load a shed
request is *the signal* (it becomes the bench's shed rate), so outcomes
are surfaced per request as a :class:`KvResult` instead of being folded
into a reliable-delivery loop.  Transport errors likewise fail the one
request; the front door only repairs the shared pooled QP (drain +
reconnect) so later requests are not doomed by one loss burst.

Write coherence (see :mod:`repro.load.cache`): writes are owner-
serialized through a FIFO gate, so versions minted at issue hit the wire
in mint order on one RC QP and acknowledgements advance the per-key
frontier monotonically.  Callers must sticky-route writes — exactly one
front door owns each key's writes (reads may come from anywhere).
"""

from __future__ import annotations

from typing import Generator, NamedTuple, Optional

from repro.apps.hashtable.backend import HashTableBackend
from repro.apps.hashtable.layout import ENTRY_BYTES, pack_entry, unpack_entry
from repro.load.cache import InvalidationDirectory, LeaseCache
from repro.sim import Resource
from repro.tenancy.plane import ServicePlane
from repro.verbs import (
    CompletionStatus,
    MemoryRegion,
    Opcode,
    Sge,
    Worker,
    WorkRequest,
)

__all__ = ["KvFrontDoor", "KvResult", "SERVE_CPU_NS", "preload_table",
           "sticky_owner_key"]

#: Per-request CPU cost at the front door (parse/dispatch/hash), paid
#: for every request — cache hits included (same role as the hashtable
#: front-end's ``FE_OP_CPU_NS``).
SERVE_CPU_NS = 30.0

#: Scratch slots registered per chunk; the pool grows by another chunk
#: whenever an arrival burst outruns the free list.
_SLOT_CHUNK = 64


class KvResult(NamedTuple):
    """Outcome of one front-door request.

    ``outcome``: "hit" (served from the lease cache), "ok" (served
    remotely), "shed" (admission/deadline rejection — the plane said no),
    or "error" (transport failure).  ``version`` is 0 when no value was
    served.
    """

    outcome: str
    version: int = 0
    value: bytes = b""

    @property
    def served(self) -> bool:
        return self.outcome in ("hit", "ok")


class KvFrontDoor:
    """One client machine's KV entry point through the tenancy plane."""

    def __init__(self, plane: ServicePlane, backend: HashTableBackend,
                 tenant: str, machine: int, socket: int = 0,
                 cache: Optional[LeaseCache] = None,
                 directory: Optional[InvalidationDirectory] = None,
                 name: str = ""):
        plane.config.tenant(tenant)
        self.plane = plane
        self.backend = backend
        self.tenant = tenant
        self.machine_id = machine
        self.socket = socket
        self.name = name or f"frontdoor.m{machine}"
        self.worker = Worker(plane.ctx, machine, socket, name=self.name)
        self.cache = cache
        self.directory = directory
        if cache is not None and directory is not None:
            directory.register(cache)
        #: Owner-serializes writes (see module docstring).
        self._gate = Resource(plane.sim, name=f"{self.name}.write_gate")
        #: Free staging slots as (mr, offset); grown in chunks so a burst
        #: of concurrent requests never fails for want of a buffer.
        self._free: list[tuple[MemoryRegion, int]] = []
        self._grow_slots()
        # Fallback version mint when no directory is wired (single front
        # door, no cache to invalidate).
        self._local_versions: dict[int, int] = {}
        self.reconnects = 0

    def _grow_slots(self) -> None:
        mr = self.plane.ctx.register(
            self.machine_id, _SLOT_CHUNK * ENTRY_BYTES, socket=self.socket)
        self._free.extend((mr, i * ENTRY_BYTES) for i in range(_SLOT_CHUNK))

    def _slot(self) -> tuple[MemoryRegion, int]:
        if not self._free:
            self._grow_slots()
        return self._free.pop()

    # -- operations -----------------------------------------------------------
    def get(self, key: int) -> Generator:
        """One GET: lease-cache probe, then a one-sided READ of the entry
        through the plane.  Returns a :class:`KvResult`."""
        yield from self.worker.compute(SERVE_CPU_NS)
        metrics = self.plane.metrics
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                metrics.record_cache(self.tenant, "hit")
                version, value = cached
                return KvResult("hit", version, value)
        mr, off = self._slot()
        rmr, roff = self.backend.cold_location(key)
        qp = self.plane.connections.lease(
            self.tenant, self.machine_id, self.backend.machine)
        worker = self.worker
        try:
            wr = WorkRequest(Opcode.READ, sgl=[Sge(mr, off, ENTRY_BYTES)],
                             remote_mr=rmr, remote_offset=roff)
            yield worker.charge_post(qp, wr)
            comp = yield self.plane.submit(qp, wr)
            yield worker.charge_poll(comp)
            worker.ops += 1
            if comp.status is CompletionStatus.REJECTED:
                return KvResult("shed")
            if not comp.ok:
                yield from self._repair(qp)
                return KvResult("error")
            _, version, value = unpack_entry(mr.read(off, ENTRY_BYTES))
            if self.cache is not None:
                metrics.record_cache(self.tenant, "miss")
                if version > 0:
                    self.cache.put(key, version, value)
            return KvResult("ok", version, value)
        finally:
            self.plane.connections.release(qp)
            self._free.append((mr, off))

    def put(self, key: int, value: bytes) -> Generator:
        """One PUT: mint a version, stage the packed entry, one-sided
        WRITE through the plane, invalidate caches on ack.

        The write gate is held from version mint until the WR is
        *enqueued* (handed to the plane synchronously after the posting
        CPU cost), which pins mint order to wire order without
        serializing completion latencies — concurrent PUTs overlap in
        the plane and on the wire like any other ops."""
        yield from self.worker.compute(SERVE_CPU_NS)
        mr, off = self._slot()
        qp = None
        worker = self.worker
        try:
            gate = self._gate
            if gate.in_use:
                # A grant stays scheduled (succeed, not fire): the new
                # holder runs after what is already queued at this
                # instant.  Inline grants moved the multi-tenant example.
                granted = self.plane.sim.event()
                gate.hold(None, granted.succeed)
                yield granted
            else:
                gate.hold(None)  # free: granted now, no wake to wait for
            try:
                if self.directory is not None:
                    version = self.directory.next_version(key)
                else:
                    version = self._local_versions.get(key, 0) + 1
                    self._local_versions[key] = version
                mr.write(off, pack_entry(key, version, value))
                yield from self.worker.memcpy(ENTRY_BYTES)
                rmr, roff = self.backend.cold_location(key)
                qp = self.plane.connections.lease(
                    self.tenant, self.machine_id, self.backend.machine)
                wr = WorkRequest(Opcode.WRITE, sgl=[Sge(mr, off, ENTRY_BYTES)],
                                 remote_mr=rmr, remote_offset=roff)
                yield worker.charge_post(qp, wr)
                ev = self.plane.submit(qp, wr)
            finally:
                gate.release()
            comp = yield ev
            yield worker.charge_poll(comp)
            worker.ops += 1
            if comp.status is CompletionStatus.REJECTED:
                return KvResult("shed")
            if not comp.ok:
                yield from self._repair(qp)
                return KvResult("error")
            if self.directory is not None:
                dropped = self.directory.ack_write(key, version)
                for _ in range(dropped):
                    self.plane.metrics.record_cache(self.tenant, "invalidate")
            elif self.cache is not None and self.cache.invalidate(key):
                self.plane.metrics.record_cache(self.tenant, "invalidate")
            return KvResult("ok", version, value)
        finally:
            if qp is not None:
                self.plane.connections.release(qp)
            self._free.append((mr, off))

    def _repair(self, qp) -> Generator:
        """Recover an errored pooled QP (``RdmaContext.recover_qp``) so
        one loss burst does not doom every later request that leases it.
        The failed request itself is not retried (open-loop: the failure
        is the datum); one already reconnecting returns at once."""
        if (yield from self.plane.ctx.recover_qp(qp)):
            self.reconnects += 1


def sticky_owner_key(key: int, owner: int, n_owners: int,
                     n_keys: int) -> int:
    """Remap a sampled key to the nearest key owned by ``owner``.

    Sticky write routing: front door ``i`` owns exactly the keys with
    ``key % n_owners == i``, so every key has one writer and version
    mint order equals wire order (the coherence precondition — see
    :mod:`repro.load.cache`).  The remap preserves the sampled key's
    popularity rank to within ``n_owners`` positions, so the write
    stream stays zipf-shaped."""
    if not 0 <= owner < n_owners:
        raise ValueError(f"owner {owner} out of range [0, {n_owners})")
    if n_keys <= n_owners:
        raise ValueError(f"need n_keys > n_owners ({n_keys} <= {n_owners})")
    owned = (key // n_owners) * n_owners + owner
    if owned >= n_keys:
        owned -= n_owners
    return owned


def preload_table(backend: HashTableBackend,
                  directory: Optional[InvalidationDirectory] = None,
                  version: int = 1) -> None:
    """Populate every cold-table entry (version ``version``, value
    derived from the key) directly in backend memory — the bulk load
    happens before the measurement window, so it costs no simulated
    time.  Seeds the directory so minted versions continue past it."""
    for key in range(backend.layout.n_keys):
        mr, off = backend.cold_location(key)
        mr.write(off, pack_entry(key, version, b"v%07d" % (key % 10**7)))
        if directory is not None:
            directory.seed(key, version)
