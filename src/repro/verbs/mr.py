"""Memory regions: registered, rkey-protected windows of host memory.

:class:`MrSlice` is a bounds-checked view ``(mr, offset, length)`` — the
currency of the slice-based verbs API: ``mr[64:128]`` (or
``mr.slice(64, 64)``) names a byte range without the offset/length
positional sprawl, and ``Worker.read/write`` accept them as ``src=`` /
``dst=``.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from repro.memory.buffer import RdmaBuffer

__all__ = ["MemoryRegion", "MrSlice"]

_mr_ids = itertools.count(1)


class MemoryRegion:
    """A registered buffer, addressable by remote peers holding its rkey.

    Registration pins the pages and installs translation-table entries the
    RNIC caches in SRAM; the number of *distinct pages touched* is what
    drives the sequential/random asymmetry of Section III-B.
    """

    def __init__(self, buffer: RdmaBuffer, page_size: int):
        self.buffer = buffer
        self.page_size = page_size
        self.mr_id = next(_mr_ids)
        self.rkey = 0xBEEF0000 | (self.mr_id & 0xFFFF)
        self.lkey = 0xFEED0000 | (self.mr_id & 0xFFFF)
        if page_size <= 0:
            raise ValueError(f"page size must be positive: {page_size}")
        if buffer.size > 1 << 32:
            raise ValueError(f"regions are at most 4 GiB: {buffer.size}")
        #: Device-wide int keys for this region: page ``p``'s translation
        #: entry is ``key_base + p`` and the word at byte ``o`` locks on
        #: ``key_base | o``.  The low 32 bits hold the page or offset, so
        #: two regions never share a key.
        self.key_base = self.mr_id << 32
        # Fixed at allocation: plain attributes, read on every WR (a
        # property read costs several times an attribute read).
        self.size = buffer.size
        self.machine_id = buffer.machine_id
        self.socket = buffer.socket

    # -- slicing ------------------------------------------------------------
    def slice(self, offset: int, length: int) -> "MrSlice":
        """A lightweight ``(mr, offset, length)`` view (bounds-checked)."""
        return MrSlice(self, offset, length)

    def __getitem__(self, key: slice) -> "MrSlice":
        """``mr[a:b]`` == ``mr.slice(a, b - a)``; step is not supported."""
        if not isinstance(key, slice):
            raise TypeError(f"MemoryRegion indices must be slices, not "
                            f"{type(key).__name__}")
        if key.step not in (None, 1):
            raise ValueError("MemoryRegion slices must be contiguous (step 1)")
        start = 0 if key.start is None else key.start
        stop = self.size if key.stop is None else key.stop
        if start < 0 or stop < 0:
            raise ValueError(
                f"negative indices are not supported: [{key.start}:{key.stop}]")
        return MrSlice(self, start, stop - start)

    # -- data plane ---------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        return self.buffer.read(offset, length)

    def write(self, offset: int, payload: bytes) -> None:
        self.buffer.write(offset, payload)

    def read_u64(self, offset: int) -> int:
        return self.buffer.read_u64(offset)

    def write_u64(self, offset: int, value: int) -> None:
        self.buffer.write_u64(offset, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MR id={self.mr_id} m{self.machine_id}/s{self.socket} "
            f"{self.size}B>"
        )


class MrSlice(namedtuple("MrSlice", ("mr", "offset", "length"))):
    """A byte range ``[offset, offset + length)`` of a registered region.

    Purely descriptive — it holds no data, and the verbs layer unpacks it
    back into ``(mr, offset, length)`` when building SGEs.  An immutable
    tuple whose constructor checks the bounds; hot paths that already
    hold ``(mr, offset, length)`` build their :class:`~repro.verbs.types.
    Sge` directly instead of going through a slice.
    """

    __slots__ = ()

    def __new__(cls, mr: MemoryRegion, offset: int,
                length: int) -> "MrSlice":
        if length < 0:
            raise ValueError(f"negative slice length: {length}")
        if offset < 0 or offset + length > mr.size:
            raise ValueError(
                f"slice [{offset}:{offset + length}) out of bounds for "
                f"{mr.size}-byte region {mr.mr_id}")
        return tuple.__new__(cls, (mr, offset, length))

    def slice(self, offset: int, length: int) -> "MrSlice":
        """A sub-slice, with ``offset`` relative to this slice's start."""
        if offset < 0 or offset + length > self.length:
            raise ValueError(
                f"sub-slice [{offset}:{offset + length}) out of bounds for "
                f"{self.length}-byte slice")
        return MrSlice(self.mr, self.offset + offset, length)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MrSlice mr={self.mr.mr_id} "
                f"[{self.offset}:{self.offset + self.length})>")
