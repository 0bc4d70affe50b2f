"""IO consolidation: the remote burst buffer (Section III-C, Fig 7/8).

Small writes aimed at the same S-byte-aligned remote block are absorbed
into a local shadow of that block and flushed as ONE RDMA write when
either (1) θ modifications have accumulated, or (2) the block's lease
times out.  θ round trips become one, which is what lifts 32 B random
writes by up to ~7.5x (Fig 8).

Intended for skewed workloads: the caller *hints* which region is hot
(the paper's "hint interface"); cold traffic should bypass the
consolidator.  Correctness contract: the shadow is the owner's write
cache for the hinted region, so remote readers see whole consistent
blocks after each flush (single-writer burst-buffer semantics, like an
SSD burst tier absorbing application I/O).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim import Interrupt
from repro.verbs import MemoryRegion, QueuePair, Sge, Worker, WorkRequest
from repro.verbs.types import Opcode

__all__ = ["IoConsolidator"]


class _Block:
    __slots__ = ("index", "pending", "dirty_since")

    def __init__(self, index: int):
        self.index = index
        self.pending = 0                   # modifications since last flush
        self.dirty_since: Optional[float] = None


class IoConsolidator:
    """Write-combining front for one hot remote region.

    Parameters
    ----------
    worker, qp:
        The issuing thread and its connection to the memory node.
    staging_mr:
        Local registered shadow, same size as the hinted remote window —
        flushes DMA straight out of it (no extra copy).
    remote_mr, remote_base:
        The hinted hot window in remote memory.
    block_bytes:
        Aligned block size S (1 KB in Fig 8's setup).
    theta:
        Flush after this many modifications to one block.
    lease_ns:
        Flush a dirty block this long after its first unflushed write,
        bounding staleness.  ``None`` disables timeouts (benchmarks).
    """

    def __init__(self, worker: Worker, qp: QueuePair,
                 staging_mr: MemoryRegion, remote_mr: MemoryRegion,
                 remote_base: int = 0, block_bytes: int = 1024,
                 theta: int = 16, lease_ns: Optional[float] = None,
                 move_data: bool = True):
        if block_bytes <= 0:
            raise ValueError(f"block size must be positive: {block_bytes}")
        if theta < 1:
            raise ValueError(f"theta must be >= 1: {theta}")
        if remote_base % block_bytes:
            raise ValueError("remote base must be block-aligned")
        window = staging_mr.size
        if remote_base + window > remote_mr.size:
            raise ValueError("hot window exceeds the remote region")
        self.worker = worker
        self.qp = qp
        self.staging_mr = staging_mr
        self.remote_mr = remote_mr
        self.remote_base = remote_base
        self.block_bytes = block_bytes
        self.theta = theta
        self.lease_ns = lease_ns
        self.move_data = move_data
        self.n_blocks = window // block_bytes
        self._blocks: dict[int, _Block] = {}
        # stats
        self.writes_absorbed = 0
        self.flushes = 0
        self.timeout_flushes = 0
        self._daemon = None
        check = worker.sim.check
        if check is not None:
            check.on_consolidator_created(self)

    # ------------------------------------------------------------------ write
    def write(self, window_offset: int, data: bytes | None,
              length: Optional[int] = None) -> Generator:
        """Absorb one small write at ``window_offset`` within the hot window.

        Returns (StopIteration value) True if this write triggered a flush.
        """
        n = len(data) if data is not None else length
        if n is None:
            raise ValueError("need data bytes or an explicit length")
        if window_offset < 0 or window_offset + n > self.staging_mr.size:
            raise IndexError(
                f"write [{window_offset}, {window_offset + n}) outside the "
                f"hot window of {self.staging_mr.size} B")
        first = window_offset // self.block_bytes
        last = (window_offset + max(n, 1) - 1) // self.block_bytes
        if first != last:
            raise ValueError(
                "consolidated writes must not straddle block boundaries")
        # Stage into the shadow: a local memory write (tiny CPU cost).
        yield from self.worker.memcpy(n, dst_socket=self.staging_mr.socket)
        if self.move_data and data is not None:
            self.staging_mr.write(window_offset, data)
        block = self._blocks.get(first)
        if block is None:
            block = self._blocks[first] = _Block(first)
        block.pending += 1
        if block.dirty_since is None:
            block.dirty_since = self.worker.sim.now
        self.writes_absorbed += 1
        if block.pending >= self.theta:
            yield from self.flush_block(first)
            return True
        return False

    # ------------------------------------------------------------------ flush
    def flush_block(self, block_index: int) -> Generator:
        """Write one whole block back with a single RDMA write."""
        if not 0 <= block_index < self.n_blocks:
            raise IndexError(f"no block {block_index}")
        block = self._blocks.get(block_index)
        if block is None or block.pending == 0:
            return None
        block.pending = 0
        block.dirty_since = None
        offset = block_index * self.block_bytes
        wr = WorkRequest(
            Opcode.WRITE,
            sgl=[Sge(self.staging_mr, offset, self.block_bytes)],
            remote_mr=self.remote_mr,
            remote_offset=self.remote_base + offset,
            move_data=self.move_data)
        comp = yield from self.worker.execute(self.qp, wr)
        self.flushes += 1
        # Drop the tracking entry once clean: a hot window has room for
        # millions of blocks and keeping a _Block per block ever touched
        # grows the dict (and dirty_blocks()/lease scans) without bound.
        # A write absorbed while the flush was in flight re-dirtied this
        # same object, so only delete when it is still clean and still the
        # registered entry for its slot.
        if block.pending == 0 and self._blocks.get(block_index) is block:
            del self._blocks[block_index]
        check = self.worker.sim.check
        if check is not None:
            check.on_consolidator_flush(self)
        return comp

    def flush_all(self) -> Generator:
        """Drain every dirty block (e.g. on shutdown)."""
        for idx in sorted(self._blocks):
            yield from self.flush_block(idx)

    def dirty_blocks(self) -> list[int]:
        return sorted(i for i, b in self._blocks.items() if b.pending > 0)

    # ------------------------------------------------------------------ lease
    def start_lease_daemon(self) -> None:
        """Spawn the background process that enforces lease expiry."""
        if self.lease_ns is None:
            raise ValueError("consolidator created without a lease")
        if self._daemon is None:
            self._daemon = self.worker.sim.process(
                self._lease_loop(), name="consolidator.lease")

    def stop_lease_daemon(self) -> None:
        if self._daemon is not None:
            self._daemon.interrupt("stop")
            self._daemon = None

    def _lease_loop(self) -> Generator:
        sim = self.worker.sim
        try:
            while True:
                yield sim.timeout(self.lease_ns / 2)
                now = sim.now
                expired = [i for i, b in self._blocks.items()
                           if b.pending > 0 and b.dirty_since is not None
                           and now - b.dirty_since >= self.lease_ns]
                for idx in expired:
                    yield from self.flush_block(idx)
                    self.timeout_flushes += 1
        except Interrupt:
            return
