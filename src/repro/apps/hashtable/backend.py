"""The storage back-end: registered regions on one memory node.

The back-end is entirely passive — after registration its CPU never
touches a request (the point of disaggregation).  It owns, per socket:
the cold-table stripe, the hot-area stripe, and the lock words.
"""

from __future__ import annotations

from repro.apps.hashtable.layout import TableLayout
from repro.verbs import MemoryRegion, RdmaContext

__all__ = ["HashTableBackend"]


class HashTableBackend:
    """Registers the table's memory on ``machine`` and resolves addresses."""

    def __init__(self, ctx: RdmaContext, machine: int, layout: TableLayout):
        if layout.sockets != ctx.params.sockets_per_machine:
            raise ValueError(
                f"layout striped over {layout.sockets} sockets but the "
                f"machine has {ctx.params.sockets_per_machine}")
        self.ctx = ctx
        self.machine = machine
        self.layout = layout
        self.cold_mrs: list[MemoryRegion] = []
        self.hot_mrs: list[MemoryRegion] = []
        self.lock_mrs: list[MemoryRegion] = []
        for s in range(layout.sockets):
            self.cold_mrs.append(ctx.register(
                machine, layout.cold_region_bytes(s), socket=s))
            self.hot_mrs.append(ctx.register(
                machine, layout.hot_region_bytes(s), socket=s))
            self.lock_mrs.append(ctx.register(
                machine, layout.lock_region_bytes(s), socket=s))

    # -- address resolution ---------------------------------------------------
    def cold_location(self, key: int) -> tuple[MemoryRegion, int]:
        s = self.layout.cold_socket(key)
        return self.cold_mrs[s], self.layout.cold_offset(key)

    def block_location(self, block: int) -> tuple[MemoryRegion, int]:
        s = self.layout.block_socket(block)
        return self.hot_mrs[s], self.layout.block_offset(block)

    def lock_location(self, block: int) -> tuple[MemoryRegion, int]:
        s = self.layout.block_socket(block)
        return self.lock_mrs[s], self.layout.lock_offset(block)

    # -- test/verification helpers (backend-local inspection) -------------------
    def peek_hot(self, key: int) -> bytes:
        from repro.apps.hashtable.layout import ENTRY_BYTES
        block = self.layout.hot_block(key)
        mr, off = self.block_location(block)
        return mr.read(off + self.layout.hot_slot(key) * ENTRY_BYTES,
                       ENTRY_BYTES)
