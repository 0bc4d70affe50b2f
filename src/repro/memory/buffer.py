"""Registered RDMA buffers backed by real bytes.

Applications move actual data through the simulator (the hashtable stores
real values, the shuffle moves real tuples), so correctness properties —
read-your-writes, exactly-once delivery, log ordering — are testable, not
assumed.

The §III-B translation effect needs regions far larger than what the
model writes: ``verbs_mix`` registers 64 MB and writes a few thousand
scattered 8-byte words.  So the store is sparse below page granularity.
Each 4 KB page is in one of three states:

* *untouched*: it reads as zero and holds nothing;
* *lines*: the 64-byte lines written so far sit in a per-buffer dict
  (line index -> ``bytearray``), at most :data:`DENSE_LINES` of them;
* *dense*: the page lives on a private anonymous ``mmap`` of the whole
  buffer, page-aligned as the paper's ``posix_memalign`` allocations are.

A page goes dense, for good, when it would need more than
:data:`DENSE_LINES` lines (past that its lines cost more host memory
than the page), or when a bulk transfer (:data:`PAGE` bytes or more)
touches it while it holds lines; its lines are copied onto the mapping
and dropped.  A bulk write makes every page it touches dense.  So bulk
transfers and every access to a dense page run on the mapping (byte
slices, and ``struct`` for 64-bit words), as does any read that meets
no page holding lines: untouched pages there are still zero.  Where the
``mmap`` module has ``MADV_NOHUGEPAGE`` the mapping is advised against
transparent huge pages, so the kernel commits a 4 KB page only where a
dense page is written, and a read of an untouched page maps the shared
zero page.

Per page the buffer keeps one state byte: 0, the count of lines it
holds, or dense.  The line size and the threshold are not knobs: both
follow from the 4 KB page.  What an access returns never depends on a
page's state.
"""

from __future__ import annotations

import mmap
import struct

import numpy as np

__all__ = ["DENSE_LINES", "LINE", "PAGE", "RdmaBuffer"]

_PAGE_SHIFT = 12
_LINE_SHIFT = 6
#: Bytes in a page: the unit of the dense store.
PAGE = 1 << _PAGE_SHIFT
#: Bytes in a line: the unit of the sparse store.
LINE = 1 << _LINE_SHIFT
#: A held line costs about four times its bytes (the ``bytearray`` and
#: its storage, the int key and the dict slot), so a page holding more
#: than this many lines would cost more than the page itself.
DENSE_LINES = PAGE // (4 * LINE)

_LINE_MASK = LINE - 1
_PAGE_LINES = _PAGE_SHIFT - _LINE_SHIFT  # log2 of lines per page
_DENSE = 0xFF  # page state; other values count the page's lines
_MASK64 = (1 << 64) - 1
_U64 = struct.Struct("=Q")  # native order, as a uint64 view of the bytes
_NOHUGEPAGE = getattr(mmap, "MADV_NOHUGEPAGE", None)


class RdmaBuffer:
    """A page-aligned byte buffer pinned on one machine/socket."""

    def __init__(self, size: int, machine_id: int, socket: int):
        if size <= 0:
            raise ValueError(f"buffer size must be positive: {size}")
        self.size = size
        self.machine_id = machine_id
        self.socket = socket
        self.freed = False
        self._end = size  # the bound every access checks; -1 once freed
        # MAP_PRIVATE, as calloc'd memory is: a forked worker's writes
        # stay its own.  Accesses slice the mapping itself (a third of the
        # cost of slicing a NumPy array over it).  The array over it stays
        # too: the cyclic collector cannot see an array's references, so
        # the mapping of a buffer in a rig's reference cycle is freed by
        # refcount, not counted among the objects a collection frees.
        self._map = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        if _NOHUGEPAGE is not None:
            self._map.madvise(_NOHUGEPAGE)
        self._pin = np.frombuffer(self._map, dtype=np.uint8)
        self._state = bytearray(-(-size >> _PAGE_SHIFT))
        self._lines: dict[int, bytearray] = {}
        self._holding = 0  # pages holding lines

    def release(self) -> None:
        """Drop the store; any later access raises ``ValueError``."""
        self.freed = True
        self._end = -1
        self._map = self._pin = self._state = self._lines = None

    def _fail(self, offset: int, length: int) -> None:
        if self.freed:
            raise ValueError(
                f"access [{offset}, {offset + length}) to a freed buffer of "
                f"{self.size} bytes on m{self.machine_id}/s{self.socket}")
        raise IndexError(
            f"access [{offset}, {offset + length}) out of bounds for "
            f"buffer of {self.size} bytes"
        )

    # -- bytes ---------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        end = offset + length
        if offset < 0 or length < 0 or end > self._end:
            self._fail(offset, length)
        if not length:
            return b""
        state = self._state
        first, last = offset >> _PAGE_SHIFT, (end - 1) >> _PAGE_SHIFT
        if length >= PAGE:
            self._densify_holding(first, last)
        elif first == last:
            s = state[first]
            if not s:
                return bytes(length)
            if s != _DENSE:
                line_no = offset >> _LINE_SHIFT
                if (end - 1) >> _LINE_SHIFT != line_no:
                    return self._gather(offset, end)
                line = self._lines.get(line_no)
                if line is None:
                    return bytes(length)
                at = offset & _LINE_MASK
                return bytes(line[at:at + length])
        elif state[first] not in (0, _DENSE) or state[last] not in (0, _DENSE):
            return self._gather(offset, end)
        return self._map[offset:end]

    def _gather(self, offset: int, end: int) -> bytes:
        """``[offset, end)``, under a page: the mapping with the held
        lines laid over it."""
        out = bytearray(self._map[offset:end])
        lines = self._lines
        for line_no in range(offset >> _LINE_SHIFT,
                             ((end - 1) >> _LINE_SHIFT) + 1):
            line = lines.get(line_no)
            if line is not None:
                base = line_no << _LINE_SHIFT
                a, b = max(offset, base), min(end, base + LINE)
                out[a - offset:b - offset] = line[a - base:b - base]
        return bytes(out)

    def write(self, offset: int, payload: bytes | np.ndarray) -> None:
        # Sized in bytes: ``len`` of a uint64 array counts its elements.
        raw = bytes(payload)
        n = len(raw)
        end = offset + n
        if offset < 0 or end > self._end:
            self._fail(offset, n)
        if not n:
            return
        state = self._state
        first, last = offset >> _PAGE_SHIFT, (end - 1) >> _PAGE_SHIFT
        if n >= PAGE:
            self._densify_holding(first, last)
            state[first:last + 1] = bytes([_DENSE]) * (last - first + 1)
        elif first == last:
            if state[first] != _DENSE and self._hold(first, offset, end, raw):
                return
        else:  # under a page, over two
            split = last << _PAGE_SHIFT
            for lo, hi in ((offset, split), (split, end)):
                page = lo >> _PAGE_SHIFT
                chunk = raw[lo - offset:hi - offset]
                if state[page] == _DENSE or not self._hold(page, lo, hi, chunk):
                    self._map[lo:hi] = chunk
            return
        self._map[offset:end] = raw

    def _hold(self, page: int, lo: int, hi: int, chunk: bytes) -> bool:
        """Write ``chunk`` over ``[lo, hi)`` of a non-dense page as lines.

        If the page would need more than :data:`DENSE_LINES` lines it goes
        dense instead, and the caller writes the mapping (returns False).
        """
        lines = self._lines
        first, last = lo >> _LINE_SHIFT, (hi - 1) >> _LINE_SHIFT
        if first == last:
            line = lines.get(first)
            if line is None:
                if self._state[page] == DENSE_LINES:
                    self._densify(page)
                    return False
                line = self._add(page, first)
            at = lo & _LINE_MASK
            line[at:at + hi - lo] = chunk
            return True
        new = [n for n in range(first, last + 1) if n not in lines]
        if self._state[page] + len(new) > DENSE_LINES:
            self._densify(page)
            return False
        for line_no in new:
            self._add(page, line_no)
        for line_no in range(first, last + 1):
            base = line_no << _LINE_SHIFT
            a, b = max(lo, base), min(hi, base + LINE)
            lines[line_no][a - base:b - base] = chunk[a - lo:b - lo]
        return True

    def _add(self, page: int, line_no: int) -> bytearray:
        """A new zero line in a page holding fewer than DENSE_LINES."""
        line = self._lines[line_no] = bytearray(LINE)
        if not self._state[page]:
            self._holding += 1
        self._state[page] += 1
        return line

    def _densify(self, page: int) -> None:
        """Copy a page's lines onto the mapping; the page stays there."""
        held = self._state[page]
        if held:
            self._holding -= 1
        line_no = page << _PAGE_LINES
        while held:
            line = self._lines.pop(line_no, None)
            if line is not None:
                base = line_no << _LINE_SHIFT
                n = min(LINE, self.size - base)
                self._map[base:base + n] = line[:n]
                held -= 1
            line_no += 1
        self._state[page] = _DENSE

    def _densify_holding(self, first: int, last: int) -> None:
        """Make the pages in ``[first, last]`` that hold lines dense."""
        state = self._state
        if self._holding and (state.count(_DENSE, first, last + 1)
                              + state.count(0, first, last + 1)
                              <= last - first):
            for page in range(first, last + 1):
                if state[page] not in (0, _DENSE):
                    self._densify(page)

    # -- 64-bit words for atomics ------------------------------------------
    def read_u64(self, offset: int) -> int:
        if offset < 0 or offset + 8 > self._end:
            self._fail(offset, 8)
        if offset % 8:
            raise ValueError(f"atomic access must be 8-byte aligned: {offset}")
        if self._state[offset >> _PAGE_SHIFT] == _DENSE:
            return _U64.unpack_from(self._map, offset)[0]
        line = self._lines.get(offset >> _LINE_SHIFT)
        if line is None:
            return 0
        return _U64.unpack_from(line, offset & _LINE_MASK)[0]

    def write_u64(self, offset: int, value: int) -> None:
        if offset < 0 or offset + 8 > self._end:
            self._fail(offset, 8)
        if offset % 8:
            raise ValueError(f"atomic access must be 8-byte aligned: {offset}")
        page = offset >> _PAGE_SHIFT
        word = _U64.pack(value & _MASK64)
        if (self._state[page] == _DENSE
                or not self._hold(page, offset, offset + 8, word)):
            self._map[offset:offset + 8] = word

    def __len__(self) -> int:
        return self.size
