"""Property-based differential tests: the sparse ``RdmaBuffer`` against a
flat ``bytearray`` that stores every byte, and the translation SRAM's int
page keys against an LRU keyed by ``(mr_id, page)`` tuples and its
page-span lookup against one ``lookup`` per key."""

from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import build
from repro.hw import HardwareParams, MetadataCache
from repro.memory import RdmaBuffer, page_span
from repro.memory.buffer import DENSE_LINES, LINE, PAGE

# Three pages and a partial fourth whose last line is cut short, so the
# copy of a held line onto the mapping has to stop at the buffer's end.
SIZE = 3 * PAGE + LINE + 40


class _Flat:
    """Reference: every byte in one array, the same checks."""

    def __init__(self, size: int):
        self.b = bytearray(size)

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > len(self.b):
            raise IndexError(offset, length)

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return bytes(self.b[offset:offset + length])

    def write(self, offset: int, payload: bytes) -> None:
        self._check(offset, len(payload))
        self.b[offset:offset + len(payload)] = payload

    def read_u64(self, offset: int) -> int:
        self._check(offset, 8)
        if offset % 8:
            raise ValueError(offset)
        return int.from_bytes(self.b[offset:offset + 8], "little")

    def write_u64(self, offset: int, value: int) -> None:
        self._check(offset, 8)
        if offset % 8:
            raise ValueError(offset)
        self.b[offset:offset + 8] = (value % 2**64).to_bytes(8, "little")


# Offsets cluster around line and page boundaries (either side of them)
# and stray a little past both ends of the buffer.
_boundary = st.builds(
    lambda line, delta: line * LINE + delta,
    st.integers(0, SIZE // LINE + 1), st.integers(-9, 9))
_offset = st.one_of(_boundary, st.integers(-4, SIZE + 4))
_length = st.one_of(
    st.sampled_from([0, 1, 7, 8, 9, LINE - 1, LINE, LINE + 1, 2 * LINE,
                     PAGE - 1, PAGE, PAGE + 1, 2 * PAGE]),
    st.integers(0, SIZE + 8))
_u64 = st.one_of(st.integers(0, 2**64 - 1), st.integers(-2**65, 2**65))

# Short reads that start just before a page boundary.
_page_edge = st.builds(lambda page, back: page * PAGE - back,
                       st.integers(1, SIZE // PAGE), st.integers(1, LINE))

_op = st.one_of(
    st.tuples(st.just("read"), _offset, _length),
    st.tuples(st.just("read"), _page_edge, st.integers(1, 2 * LINE)),
    st.tuples(st.just("write"), _offset, _length, st.integers(1, 255)),
    st.tuples(st.just("read_u64"), _offset),
    st.tuples(st.just("write_u64"), _offset, _u64),
    # A write of the buffer's last ``n`` bytes: bulk ones reach the cut line.
    st.tuples(st.just("tail"), st.integers(1, 2 * PAGE), st.integers(1, 255)),
    # Fill ``k`` distinct lines of one page: around the dense threshold.
    st.tuples(st.just("lines"), st.integers(0, SIZE // PAGE),
              st.integers(DENSE_LINES - 2, DENSE_LINES + 2),
              st.integers(0, LINE // 8 - 1)),
)


def _apply(target, op) -> object:
    """Run one op; its result, or the type of the exception it raised."""
    try:
        kind = op[0]
        if kind == "read":
            return target.read(op[1], op[2])
        if kind == "write":
            _, offset, length, seed = op
            return target.write(offset, bytes((seed + i) % 256
                                              for i in range(length)))
        if kind == "tail":
            return _apply(target, ("write", SIZE - op[1], op[1], op[2]))
        if kind == "read_u64":
            return target.read_u64(op[1])
        if kind == "write_u64":
            return target.write_u64(op[1], op[2])
        _, page, k, word = op
        for i in range(k):
            offset = page * PAGE + i * LINE + word * 8
            if offset + 8 <= SIZE:
                target.write_u64(offset, page << 32 | i)
        return None
    except (IndexError, ValueError) as exc:
        return type(exc)


def _check_books(buf: RdmaBuffer) -> None:
    """A dense page holds no lines; any other page's state byte counts
    its held lines, at most DENSE_LINES."""
    held: dict[int, int] = {}
    for line_no in buf._lines:
        held[line_no * LINE // PAGE] = held.get(line_no * LINE // PAGE, 0) + 1
    for page, state in enumerate(buf._state):
        if state == 0xFF:
            assert page not in held
        else:
            assert state == held.get(page, 0) <= DENSE_LINES
    assert buf._holding == sum(1 for s in buf._state if s not in (0, 0xFF))


@given(st.lists(_op, max_size=40))
@settings(max_examples=300, deadline=None)
def test_sparse_buffer_matches_a_flat_bytearray(ops):
    buf, ref = RdmaBuffer(SIZE, 0, 0), _Flat(SIZE)
    for op in ops:
        assert _apply(buf, op) == _apply(ref, op), op
        _check_books(buf)
    for offset in range(0, SIZE - 7, 8):
        assert buf.read_u64(offset) == ref.read_u64(offset)
    assert buf.read(0, SIZE) == bytes(ref.b)  # bulk: ends all dense
    _check_books(buf)


# -- translation keys ---------------------------------------------------------

XLT_ENTRIES = 12
MR_SIZES = (3 * PAGE + 100, 8 * PAGE, PAGE)


class _TupleLru:
    """Reference translation SRAM: an LRU of ``(mr_id, page)`` tuples."""

    def __init__(self, capacity: int, penalty: float):
        self.capacity, self.penalty = capacity, penalty
        self.entries: OrderedDict = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def _trim(self) -> None:
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def translate(self, mr, offset: int, length: int) -> float:
        misses = 0
        for page in page_span(offset, length, mr.page_size):
            key = (mr.mr_id, page)
            if key in self.entries:
                self.entries.move_to_end(key)
                self.hits += 1
            else:
                misses += 1
                self.entries[key] = None
                self._trim()
        self.misses += misses
        return misses * self.penalty


# Offsets cluster either side of page boundaries; lengths cover zero,
# sub-page, page-straddling and multi-page accesses.
_xlt_access = st.tuples(
    st.integers(0, len(MR_SIZES) - 1),
    st.one_of(st.builds(lambda page, delta: max(0, page * PAGE + delta),
                        st.integers(0, 8), st.integers(-70, 70)),
              st.integers(0, 8 * PAGE)),
    st.one_of(st.sampled_from([0, 1, 8, 64, PAGE - 1, PAGE, PAGE + 1,
                               3 * PAGE]),
              st.integers(0, 5 * PAGE)))


@given(st.lists(_xlt_access, min_size=1, max_size=60),
       st.integers(0, 60), st.integers(1, XLT_ENTRIES))
@settings(max_examples=200, deadline=None)
def test_int_page_keys_translate_like_tuple_keys(accesses, shrink_at,
                                                 shrunk):
    """``Rnic.translate(mr, offset, length)`` pays the same penalty per
    access, and counts the same hits, misses and evictions, as an LRU
    keyed by ``(mr_id, page)``, across regions and a mid-run shrink."""
    params = HardwareParams().derive(translation_cache_entries=XLT_ENTRIES,
                                     translation_cache_min_entries=1)
    _sim, cluster, ctx = build(machines=1, params=params)
    rnic = cluster[0].rnic
    xlt = rnic.translation_cache
    ref = _TupleLru(XLT_ENTRIES, xlt.miss_penalty_ns)
    mrs = [ctx.register(0, size) for size in MR_SIZES]
    assert mrs[0].page_size == PAGE
    for i, (which, offset, length) in enumerate(accesses):
        if i == shrink_at:
            xlt.set_capacity(shrunk)
            ref.capacity = shrunk
            ref._trim()
        mr = mrs[which]
        assert rnic.translate(mr, offset, length) \
            == ref.translate(mr, offset, length), (i, which, offset, length)
        assert (xlt.hits, xlt.misses, xlt.evictions) \
            == (ref.hits, ref.misses, ref.evictions)
    assert len(xlt) == len(ref.entries)


def _per_key(cache: MetadataCache, mr, offset: int, length: int) -> float:
    """Reference: one ``lookup`` per key of the access, in page order."""
    return sum(cache.lookup(mr.key_base + page)
               for page in page_span(offset, length, mr.page_size))


@given(st.lists(_xlt_access, min_size=1, max_size=60),
       st.integers(1, XLT_ENTRIES))
@example([(0, 0, 0), (0, PAGE - 1, 2), (1, 3 * PAGE - 8, 2 * PAGE + 16),
          (2, 0, 0), (0, PAGE - 1, 2), (1, 5 * PAGE, 0)], 1)
@settings(max_examples=300, deadline=None)
def test_span_lookup_equals_the_per_key_loop(accesses, capacity):
    """``MetadataCache.lookup_span`` (``Rnic.translate``) is ``lookup``
    over each key of the span: the same penalty per access and the same
    hits, misses, evictions and LRU key order after it, across regions,
    for zero-length, page-straddling and multi-page accesses and down to
    a capacity of 1."""
    _sim, _cluster, ctx = build(machines=1)
    mrs = [ctx.register(0, size) for size in MR_SIZES]
    span = MetadataCache(capacity, miss_penalty_ns=250.0)
    loop = MetadataCache(capacity, miss_penalty_ns=250.0)
    for i, (which, offset, length) in enumerate(accesses):
        mr = mrs[which]
        assert span.lookup_span(mr, offset, length) \
            == _per_key(loop, mr, offset, length), (i, which, offset, length)
        assert (span.hits, span.misses, span.evictions) \
            == (loop.hits, loop.misses, loop.evictions)
        assert list(span._entries) == list(loop._entries)
    # A negative offset or length raises and touches nothing.
    before = (list(span._entries), span.hits, span.misses, span.evictions)
    for bad in ((-1, 8), (0, -1), (-PAGE, 0)):
        with pytest.raises(ValueError):
            span.lookup_span(mrs[0], *bad)
    assert (list(span._entries), span.hits, span.misses,
            span.evictions) == before
