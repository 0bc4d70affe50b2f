"""Registered RDMA buffers backed by real bytes.

Applications move actual data through the simulator (the hashtable stores
real values, the shuffle moves real tuples), so correctness properties —
read-your-writes, exactly-once delivery, log ordering — are testable, not
assumed.

The backing store is a NumPy ``uint8`` array over a private anonymous
``mmap`` of the buffer, page-aligned as the paper's ``posix_memalign``
allocations are.  Where the ``mmap`` module has ``MADV_NOHUGEPAGE``
the mapping is advised against transparent huge pages, so the kernel
commits a 4 KB zero page only where the model writes and reads of
untouched pages cost no resident memory: a 64 MB region that takes a few
thousand 8-byte atomics commits a few MB, not 64.  ``np.zeros`` would
``calloc`` the region, which NumPy advises *for* huge pages, so each
first write there commits a whole 2 MB page.  Platforms without the
constant take the same ``mmap`` path without the advice.
"""

from __future__ import annotations

import mmap

import numpy as np

__all__ = ["RdmaBuffer"]

_NOHUGEPAGE = getattr(mmap, "MADV_NOHUGEPAGE", None)


class RdmaBuffer:
    """A page-aligned byte buffer pinned on one machine/socket."""

    def __init__(self, size: int, machine_id: int, socket: int):
        if size <= 0:
            raise ValueError(f"buffer size must be positive: {size}")
        self.size = size
        self.machine_id = machine_id
        self.socket = socket
        self.freed = False  # set by RegionAllocator.free
        # MAP_PRIVATE, as calloc'd memory is: a forked worker's writes stay
        # its own.  The array holds the mapping, which unmaps with it.
        region = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        if _NOHUGEPAGE is not None:
            region.madvise(_NOHUGEPAGE)
        self.data = np.frombuffer(region, dtype=np.uint8)

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise IndexError(
                f"access [{offset}, {offset + length}) out of bounds for "
                f"buffer of {self.size} bytes"
            )

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return self.data[offset:offset + length].tobytes()

    def write(self, offset: int, payload: bytes | np.ndarray) -> None:
        # Sized in bytes: ``len`` of a uint64 array counts its elements.
        raw = bytes(payload)
        n = len(raw)
        self._check(offset, n)
        self.data[offset:offset + n] = np.frombuffer(raw, dtype=np.uint8)

    # -- 64-bit words for atomics ------------------------------------------
    def read_u64(self, offset: int) -> int:
        self._check(offset, 8)
        if offset % 8:
            raise ValueError(f"atomic access must be 8-byte aligned: {offset}")
        return int(self.data[offset:offset + 8].view(np.uint64)[0])

    def write_u64(self, offset: int, value: int) -> None:
        self._check(offset, 8)
        if offset % 8:
            raise ValueError(f"atomic access must be 8-byte aligned: {offset}")
        self.data[offset:offset + 8].view(np.uint64)[0] = np.uint64(value & (2**64 - 1))

    def __len__(self) -> int:
        return self.size
