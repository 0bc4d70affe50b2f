"""RNIC on-device SRAM metadata cache (Section II-B2).

Commercial RNICs keep megabytes of SRAM that cache (1) the address
translation table, (2) QP state, (3) other metadata.  The limited capacity
is "the root cause of poor scalability": translation misses fetch entries
from host DRAM over PCIe, and QP thrash sets in with many connections.

We model each cache as an LRU set of keys with a per-miss penalty.  The
translation cache is keyed by the int ``mr.key_base + page_index``
(:meth:`MetadataCache.lookup_span`); the QP cache by ``qp_id``.  The
1024-entry x 4 KB default covers 4 MB of registered memory,
which is exactly where Fig 6(d) shows the sequential/random gap opening.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

__all__ = ["MetadataCache"]


class MetadataCache:
    """An LRU cache of metadata keys with hit/miss accounting.

    ``lookup`` returns the time penalty of the access (0 on hit, the miss
    penalty on miss) and inserts the key, evicting the least recently used
    entry when full.
    """

    def __init__(self, capacity: int, miss_penalty_ns: float, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if miss_penalty_ns < 0:
            raise ValueError(f"negative miss penalty: {miss_penalty_ns}")
        self.capacity = capacity
        self.miss_penalty_ns = miss_penalty_ns
        self.name = name
        self._entries: OrderedDict[Hashable, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def lookup(self, key: Hashable) -> float:
        """Access ``key``; returns the ns penalty this access pays."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return 0.0
        self.misses += 1
        self._entries[key] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return self.miss_penalty_ns

    def lookup_span(self, mr, offset: int, length: int) -> float:
        """Access the translation entries of ``length`` bytes at ``offset``
        in ``mr``: the keys ``mr.key_base + page`` for each page of
        :func:`~repro.memory.address.page_span` (a zero-length access
        touches the page at ``offset``), in page order.  Returns the
        accumulated penalty.

        Semantically ``sum(lookup(k) for k in keys)``, as one loop with no
        range object (this is on the per-WR hot path — every op translates
        at least one page, and most exactly one).
        """
        if offset < 0 or length < 0:
            raise ValueError(f"negative offset or length: {offset}, {length}")
        page_size = mr.page_size
        key = mr.key_base + offset // page_size
        last = mr.key_base + (offset + (length or 1) - 1) // page_size
        entries = self._entries
        misses = 0
        while key <= last:
            if key in entries:
                entries.move_to_end(key)
                self.hits += 1
            else:
                misses += 1
                entries[key] = None
                if len(entries) > self.capacity:
                    entries.popitem(last=False)
                    self.evictions += 1
            key += 1
        if misses:
            self.misses += misses
            return misses * self.miss_penalty_ns
        return 0.0

    #: Calling the cache looks up one access's span, so a holder can name
    #: the cache itself as its lookup (``Rnic.translate``): one call per
    #: access, and no bound method object kept alive with the rig.
    __call__ = lookup_span

    def set_capacity(self, capacity: int) -> None:
        """Resize the cache (SRAM repartitioning under QP pressure).

        Shrinking evicts LRU entries immediately; growing just raises the
        bound.  Hit/miss counters are preserved.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key: Hashable) -> None:
        """Drop one entry (e.g. MR deregistration)."""
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetadataCache({self.name!r}, {len(self._entries)}/{self.capacity}, "
            f"hit_rate={self.hit_rate:.2f})"
        )
