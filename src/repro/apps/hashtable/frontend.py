"""Front-ends: the compute side of the disaggregated hashtable.

A front-end processes insert/search requests and reaches the back-end only
through one-sided verbs.  Optimizations are cumulative and selectable, so
the Fig 12 breakdown (Basic -> +NUMA -> +Reorder) is just three configs:

* ``numa="none"``   — one QP whose port ignores where the key lives, so
  ~half the inbound DMAs cross QPI at the back-end (the Basic baseline);
* ``numa="matched"`` — one QP per back-end socket, selected by the key's
  stripe, so every transaction stays socket-affine;
* ``theta=k``       — hot-area writes are absorbed into a local block
  shadow and flushed as whole blocks after ``k`` modifications, guarded by
  per-block remote spinlocks with exponential backoff.

Flush protocol (multi-writer safe): CAS-lock the block, READ it (skipped
when every slot is locally dirty), overlay the dirty slots, WRITE it back,
release.  Entries are never torn and a flushed block never resurrects
other front-ends' overwritten slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.apps.hashtable.backend import HashTableBackend
from repro.apps.hashtable.layout import ENTRY_BYTES, pack_entry, unpack_entry
from repro.core.locks import BackoffPolicy, RemoteSpinLock
from repro.hw.dram import AccessPattern
from repro.verbs import (
    CompletionError,
    MemoryRegion,
    Opcode,
    QueuePair,
    RdmaContext,
    Sge,
    Worker,
    WorkRequest,
)
from repro.workloads.ycsb import Op, OpKind

__all__ = ["FrontEnd", "FrontEndConfig"]

#: CPU cost of request parsing + hashing + dispatch per operation.
FE_OP_CPU_NS = 30.0

# Scratch-buffer layout (per front-end).
_ZERO_WORD = 0          # 8 B of zeros for lock releases
_ENTRY_BUF = 64         # staging for one cold entry
_BLOCK_BUF = 1024       # read-merge buffer for one hot block


@dataclass
class FrontEndConfig:
    """Which optimizations this front-end applies."""

    numa: str = "none"                  # "none" | "matched"
    theta: Optional[int] = None         # hot-area consolidation threshold
    backoff: Optional[BackoffPolicy] = None
    #: Cold writes kept in flight per front-end (small pipelining window).
    depth: int = 2
    #: True (default): flushes merge-read the block so concurrent
    #: front-ends never lose each other's slots.  False: the paper's
    #: block-granularity burst-buffer semantics — the whole block is
    #: overwritten from the local shadow (cheaper by one RDMA read per
    #: flush, but concurrent writers to one block are last-writer-wins
    #: at block granularity).
    merge_flush: bool = True
    #: Bound on hot-data staleness: a dirty block is force-flushed this
    #: long after its first unflushed modification, even below theta
    #: ("...or the lease is expired", Section IV-B).  None disables the
    #: lease daemon.
    lease_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.numa not in ("none", "matched"):
            raise ValueError(f"numa must be 'none' or 'matched': {self.numa!r}")
        if self.theta is not None and self.theta < 1:
            raise ValueError(f"theta must be >= 1: {self.theta}")
        if not 1 <= self.depth <= 8:
            raise ValueError(f"depth must be in [1, 8]: {self.depth}")
        if self.lease_ns is not None:
            if self.lease_ns <= 0:
                raise ValueError(f"lease must be positive: {self.lease_ns}")
            if not self.reorder:
                raise ValueError("a lease needs theta (the hot area)")

    @property
    def reorder(self) -> bool:
        return self.theta is not None


class FrontEnd:
    """One front-end thread pinned to (machine, socket)."""

    def __init__(self, ctx: RdmaContext, backend: HashTableBackend,
                 machine: int, socket: int, config: FrontEndConfig,
                 rng: Optional[np.random.Generator] = None, name: str = ""):
        if machine == backend.machine:
            raise ValueError("front-ends must not run on the back-end node")
        self.ctx = ctx
        self.backend = backend
        self.layout = backend.layout
        self.config = config
        self.worker = Worker(ctx, machine, socket,
                             name=name or f"fe.m{machine}.s{socket}")
        self.rng = rng
        # Connections: Basic ignores the key's socket; matched pairs one QP
        # per back-end socket with the affine ports on both ends.
        if config.numa == "matched":
            # Local side always socket-affine; the REMOTE port follows the
            # key's stripe so inbound DMAs never cross QPI at the back-end.
            self.qps = {
                s: ctx.create_qp(machine, backend.machine,
                                 local_port=self._local_port(socket),
                                 remote_port=self._remote_port(s),
                                 sq_socket=socket)
                for s in range(self.layout.sockets)
            }
        else:
            self.qps = {None: ctx.create_qp(
                machine, backend.machine,
                local_port=self._local_port(socket),
                remote_port=self._remote_port(socket), sq_socket=socket)}
        # Scratch + hot-area shadow.
        block_bytes = self.layout.block_bytes
        self.scratch = ctx.register(machine, _BLOCK_BUF + block_bytes,
                                    socket=socket)
        if config.reorder and self.layout.hot_keys:
            self.shadow = ctx.register(
                machine, self.layout.n_blocks * block_bytes, socket=socket)
        else:
            self.shadow = None
        self._dirty: dict[int, set[int]] = {}
        self._pending: dict[int, int] = {}
        self._dirty_since: dict[int, float] = {}
        self._locks: dict[int, RemoteSpinLock] = {}
        self._inflight: list = []
        self._ring_next = 0
        self._version = 0
        self._lease_daemon = None
        # stats
        self.ops = 0
        self.hot_ops = 0
        self.cold_ops = 0
        self.flushes = 0
        self.merge_reads = 0
        self.deferred_flushes = 0
        self.lease_flushes = 0
        self.transport_retries = 0

    # ------------------------------------------------------------- plumbing
    def _local_port(self, socket: int) -> int:
        return self.ctx.cluster[self.worker.machine_id].port_for_socket(
            socket).index

    def _remote_port(self, socket: int) -> int:
        return self.ctx.cluster[self.backend.machine].port_for_socket(
            socket).index

    def _qp_for(self, target_socket: int) -> QueuePair:
        if self.config.numa == "matched":
            return self.qps[target_socket]
        return self.qps[None]

    def _lock_for(self, block: int) -> RemoteSpinLock:
        lock = self._locks.get(block)
        if lock is None:
            lock_mr, lock_off = self.backend.lock_location(block)
            lock = RemoteSpinLock(
                self.worker, self._qp_for(self.layout.block_socket(block)),
                self.scratch, lock_mr, lock_off,
                backoff=self.config.backoff, rng=self.rng)
            self._locks[block] = lock
        return lock

    def _next_version(self) -> int:
        self._version += 1
        return self._version

    #: Retry budget for idempotent one-sided ops across transport faults.
    MAX_OP_RETRIES = 3

    def _reliable(self, op, qp: QueuePair, **kw) -> Generator:
        """Run an idempotent block read/write, surviving transport faults.

        The loss model drops requests before they execute at the
        responder, and block READ/WRITEs overwrite whole ranges anyway, so
        replaying a failed op is always safe.  After each failure the QP
        goes through ``RdmaContext.recover_qp``; the retry budget keeps a
        hard-down back-end from spinning forever.
        """
        comp = None
        for _attempt in range(self.MAX_OP_RETRIES + 1):
            comp = yield from op(qp, **kw)
            if comp.ok:
                return comp
            self.transport_retries += 1
            yield from self.ctx.recover_qp(qp)
        raise CompletionError(comp)

    # ------------------------------------------------------------ operations
    def process(self, op: Op) -> Generator:
        """Handle one request end-to-end."""
        yield from self.worker.compute(FE_OP_CPU_NS)
        if op.kind is OpKind.WRITE:
            yield from self._write(op.key, b"v%08d" % (self.ops % 10**8))
        elif op.kind is OpKind.RMW:
            # Read-modify-write (YCSB F): fetch, mutate, write back.
            yield from self._read(op.key)
            yield from self._write(op.key, b"m%08d" % (self.ops % 10**8))
        else:
            yield from self._read(op.key)
        self.ops += 1

    def put(self, key: int, value: bytes) -> Generator:
        """Public insert/update."""
        yield from self.worker.compute(FE_OP_CPU_NS)
        yield from self._write(key, value)
        self.ops += 1

    def get(self, key: int) -> Generator:
        """Public lookup; returns (version, value) or None if never set."""
        yield from self.worker.compute(FE_OP_CPU_NS)
        result = yield from self._read(key)
        self.ops += 1
        return result

    # ------------------------------------------------------------- write path
    def _write(self, key: int, value: bytes) -> Generator:
        entry = pack_entry(key, self._next_version(), value)
        if self.config.reorder and self.layout.is_hot(key):
            self.hot_ops += 1
            yield from self._hot_write(key, entry)
        else:
            self.cold_ops += 1
            yield from self._cold_write(key, entry)

    def _cold_write(self, key: int, entry: bytes) -> Generator:
        """Write one cold entry, keeping up to ``depth`` writes in flight.

        A small ring of staging slots keeps in-flight payloads intact;
        same-key overwrite order across the two matched QPs is last-writer
        -wins, as in the multi-version scheme.
        """
        mr, off = self.backend.cold_location(key)
        if len(self._inflight) >= self.config.depth:
            yield from self.worker.wait(self._inflight.pop(0))
        slot = self._ring_next
        self._ring_next = (self._ring_next + 1) % self.config.depth
        buf_off = _ENTRY_BUF + slot * ENTRY_BYTES
        yield from self.worker.memcpy(ENTRY_BYTES)
        self.scratch.write(buf_off, entry)
        wr = WorkRequest(Opcode.WRITE, sgl=[Sge(self.scratch, buf_off,
                                                ENTRY_BYTES)],
                         remote_mr=mr, remote_offset=off)
        ev = yield from self.worker.post(
            self._qp_for(self.layout.cold_socket(key)), wr)
        self._inflight.append(ev)

    def drain(self) -> Generator:
        """Wait out every in-flight cold write."""
        while self._inflight:
            yield from self.worker.wait(self._inflight.pop(0))

    def _shadow_off(self, block: int, slot: int) -> int:
        return (block * self.layout.block_entries + slot) * ENTRY_BYTES

    def _hot_write(self, key: int, entry: bytes) -> Generator:
        assert self.shadow is not None
        block = self.layout.hot_block(key)
        slot = self.layout.hot_slot(key)
        yield from self.worker.memcpy(ENTRY_BYTES)  # stage into the shadow
        self.shadow.write(self._shadow_off(block, slot), entry)
        dirty = self._dirty.setdefault(block, set())
        dirty.add(slot)
        # theta counts modifications, not distinct slots.
        self._pending[block] = self._pending.get(block, 0) + 1
        self._dirty_since.setdefault(block, self.worker.sim.now)
        if self._pending[block] >= self.config.theta:
            # Under contention the flush defers (keep absorbing) unless the
            # backlog grows past 4*theta — a single CAS per flush attempt
            # keeps the responder atomic units off the critical path.
            force = self._pending[block] >= 4 * self.config.theta
            yield from self.flush_block(block, blocking=force)

    def flush_block(self, block: int, blocking: bool = True) -> Generator:
        """Lock, merge (reading remote state unless fully dirty), write back.

        ``blocking=False`` tries the lock once and defers the flush if
        another front-end holds it; returns True if the flush happened.
        """
        dirty = self._dirty.get(block)
        if not dirty:
            return False
        lock = self._lock_for(block)
        qp = self._qp_for(self.layout.block_socket(block))
        block_mr, block_off = self.backend.block_location(block)
        bb = self.layout.block_bytes
        if blocking:
            yield from lock.acquire()
        else:
            got = yield from lock.try_acquire()
            if not got:
                self.deferred_flushes += 1
                return False
        try:
            fully_dirty = len(dirty) == self.layout.block_entries
            remote = block_mr[block_off:block_off + bb]
            if fully_dirty or not self.config.merge_flush:
                # Whole block is ours (or burst-buffer semantics): write
                # straight from the shadow.
                yield from self._reliable(
                    self.worker.write, qp,
                    src=self.shadow[block * bb:(block + 1) * bb], dst=remote)
            else:
                # Merge-read so other front-ends' slots survive.
                self.merge_reads += 1
                stage = self.scratch[_BLOCK_BUF:_BLOCK_BUF + bb]
                yield from self._reliable(
                    self.worker.read, qp, src=remote, dst=stage)
                for slot in dirty:
                    raw = self.shadow.read(self._shadow_off(block, slot),
                                           ENTRY_BYTES)
                    self.scratch.write(_BLOCK_BUF + slot * ENTRY_BYTES, raw)
                yield from self.worker.memcpy(len(dirty) * ENTRY_BYTES)
                yield from self._reliable(
                    self.worker.write, qp, src=stage, dst=remote)
        finally:
            yield from lock.release()
        dirty.clear()
        self._pending[block] = 0
        self._dirty_since.pop(block, None)
        self.flushes += 1
        return True

    def flush_all(self) -> Generator:
        """Drain in-flight writes and every dirty block (shutdown)."""
        yield from self.drain()
        for block in sorted(self._dirty):
            yield from self.flush_block(block)

    # ---------------------------------------------------------------- lease
    def start_lease_daemon(self) -> None:
        """Background staleness bound: flush blocks whose lease expired."""
        if self.config.lease_ns is None:
            raise ValueError("front-end configured without a lease")
        if self._lease_daemon is None:
            self._lease_daemon = self.worker.sim.process(
                self._lease_loop(), name=f"{self.worker.name}.lease")

    def stop_lease_daemon(self) -> None:
        if self._lease_daemon is not None:
            self._lease_daemon.interrupt("stop")
            self._lease_daemon = None

    def _lease_loop(self) -> Generator:
        from repro.sim import Interrupt
        sim = self.worker.sim
        lease = self.config.lease_ns
        try:
            while True:
                yield sim.timeout(lease / 2)
                now = sim.now
                expired = [b for b, t0 in self._dirty_since.items()
                           if now - t0 >= lease and self._pending.get(b)]
                for block in expired:
                    yield from self.flush_block(block, blocking=True)
                    self.lease_flushes += 1
        except Interrupt:
            return

    # -------------------------------------------------------------- read path
    def _read(self, key: int) -> Generator:
        # Read-your-writes: settle in-flight cold writes first.
        yield from self.drain()
        if self.config.reorder and self.layout.is_hot(key):
            self.hot_ops += 1
            block = self.layout.hot_block(key)
            slot = self.layout.hot_slot(key)
            if slot in self._dirty.get(block, ()):  # read-your-writes, local
                yield from self.worker.compute(
                    self.worker.machine.dram.read_ns(
                        ENTRY_BYTES, AccessPattern.RANDOM))
                raw = self.shadow.read(self._shadow_off(block, slot),
                                       ENTRY_BYTES)
            else:
                block_mr, block_off = self.backend.block_location(block)
                entry_off = block_off + slot * ENTRY_BYTES
                yield from self._reliable(
                    self.worker.read,
                    self._qp_for(self.layout.block_socket(block)),
                    src=block_mr[entry_off:entry_off + ENTRY_BYTES],
                    dst=self.scratch[_BLOCK_BUF:_BLOCK_BUF + ENTRY_BYTES])
                raw = self.scratch.read(_BLOCK_BUF, ENTRY_BYTES)
        else:
            self.cold_ops += 1
            mr, off = self.backend.cold_location(key)
            yield from self._reliable(
                self.worker.read,
                self._qp_for(self.layout.cold_socket(key)),
                src=mr[off:off + ENTRY_BYTES],
                dst=self.scratch[_ENTRY_BUF:_ENTRY_BUF + ENTRY_BYTES])
            raw = self.scratch.read(_ENTRY_BUF, ENTRY_BYTES)
        stored_key, version, value = unpack_entry(raw)
        if version == 0:
            return None  # never written
        if stored_key != key:
            raise RuntimeError(
                f"table corruption: slot for key {key} holds {stored_key}")
        return version, value
