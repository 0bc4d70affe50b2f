"""NUMA-aware region allocator.

Hands out page-aligned :class:`RdmaBuffer` regions from each socket's DRAM,
tracking per-socket usage against the machine's capacity.  The paper's
setting splits memory evenly across the two sockets; placement (own vs.
alternate socket) is the knob Table III and the NUMA-aware application
designs turn.
"""

from __future__ import annotations

from repro.hw.params import HardwareParams
from repro.memory.address import align_up
from repro.memory.buffer import RdmaBuffer

__all__ = ["RegionAllocator"]


class RegionAllocator:
    """Per-machine bump allocator with per-socket accounting."""

    def __init__(self, params: HardwareParams, machine_id: int):
        self.params = params
        self.machine_id = machine_id
        self._used = [0] * params.sockets_per_machine

    def allocate(self, size: int, socket: int) -> RdmaBuffer:
        """A page-aligned buffer of at least ``size`` bytes on ``socket``."""
        if not 0 <= socket < self.params.sockets_per_machine:
            raise ValueError(f"no socket {socket} on machine {self.machine_id}")
        if size <= 0:
            raise ValueError(f"allocation size must be positive: {size}")
        aligned = align_up(size, self.params.translation_page_bytes)
        if self._used[socket] + aligned > self.params.dram_per_socket:
            raise MemoryError(
                f"socket {socket} of machine {self.machine_id} exhausted: "
                f"{self._used[socket]} + {aligned} > {self.params.dram_per_socket}"
            )
        self._used[socket] += aligned
        return RdmaBuffer(aligned, self.machine_id, socket)

    def used(self, socket: int) -> int:
        return self._used[socket]

    def free(self, buffer: RdmaBuffer) -> None:
        """Return a buffer's accounting (bump allocator: space not reused)
        and release its store: any later access to it raises."""
        if buffer.machine_id != self.machine_id:
            raise ValueError("buffer belongs to a different machine")
        if buffer.freed:
            raise ValueError("buffer already freed")
        buffer.release()
        self._used[buffer.socket] -= buffer.size
