"""Unit tests for buffers, the allocator, and page math."""

import random
import tracemalloc
import types

import numpy as np
import pytest

from repro.hw import HardwareParams
from repro.memory import RdmaBuffer, RegionAllocator
from repro.memory.address import align_down, align_up, page_span
from repro.memory.buffer import DENSE_LINES, LINE, PAGE
from repro.verbs.mr import MemoryRegion


def test_page_span_single_page():
    assert list(page_span(0, 64, 4096)) == [0]
    assert list(page_span(4000, 64, 4096)) == [0]


def test_page_span_crossing_boundary():
    assert list(page_span(4090, 64, 4096)) == [0, 1]


def test_page_span_multi_page():
    assert list(page_span(0, 4096 * 3, 4096)) == [0, 1, 2]


def test_page_span_zero_length_touches_one_page():
    assert list(page_span(5000, 0, 4096)) == [1]


def test_page_span_validation():
    with pytest.raises(ValueError):
        page_span(-1, 10, 4096)
    with pytest.raises(ValueError):
        page_span(0, -1, 4096)
    with pytest.raises(ValueError):
        page_span(0, 1, 0)


def test_alignment_helpers():
    assert align_down(4097, 4096) == 4096
    assert align_up(4097, 4096) == 8192
    assert align_up(4096, 4096) == 4096
    with pytest.raises(ValueError):
        align_up(1, 0)


def test_buffer_read_write_roundtrip():
    buf = RdmaBuffer(4096, machine_id=0, socket=0)
    buf.write(100, b"hello world")
    assert buf.read(100, 11) == b"hello world"
    assert buf.read(0, 4) == b"\x00" * 4


def test_buffer_bounds_checked():
    buf = RdmaBuffer(128, 0, 0)
    with pytest.raises(IndexError):
        buf.read(120, 16)
    with pytest.raises(IndexError):
        buf.write(125, b"xxxx")
    with pytest.raises(IndexError):
        buf.read(-1, 4)


def test_buffer_write_sizes_arrays_in_bytes():
    buf = RdmaBuffer(64, 0, 0)
    buf.write(0, np.array([1, 2], dtype=np.uint64))
    assert (buf.read_u64(0), buf.read_u64(8)) == (1, 2)
    with pytest.raises(IndexError):
        buf.write(56, np.array([1, 2], dtype=np.uint64))  # 16 bytes at 56


def test_scattered_u64_writes_allocate_a_line_each():
    """Scattered 8-byte words in a 64 MB buffer each cost one held 64-byte
    line (~200 B with its dict entry), not a 4 KB page; reading unwritten
    bytes allocates nothing."""
    size, writes = 64 << 20, 512
    buf = RdmaBuffer(size, 0, 0)
    rng = random.Random(0)
    offsets = [rng.randrange(size // 8) * 8 for _ in range(writes)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for off in offsets:  # unwritten bytes: nothing to hold
            buf.read(off, 64)
            buf.read_u64(off)
            buf.read(off & ~(PAGE - 1), PAGE)
        read = tracemalloc.get_traced_memory()[0] - before
        for off in offsets:
            buf.write_u64(off, off)
        written = tracemalloc.get_traced_memory()[0] - before - read
    finally:
        tracemalloc.stop()
    assert read < writes  # under a byte per read: nothing held
    assert written <= writes * 256
    assert [buf.read_u64(off) for off in offsets] == offsets


def test_page_goes_dense_past_the_line_threshold():
    buf = RdmaBuffer(2 * PAGE, 0, 0)
    for i in range(DENSE_LINES):
        buf.write_u64(i * LINE, i + 1)
    assert len(buf._lines) == DENSE_LINES  # still held as lines
    buf.write(DENSE_LINES * LINE + 3, b"x")  # one line too many
    assert not buf._lines
    buf.write(PAGE + 100, b"y" * 8)
    assert len(buf._lines) == 1
    assert buf.read(PAGE, PAGE)[100:108] == b"y" * 8  # bulk: page 1 dense
    assert not buf._lines
    buf.write(PAGE + 100, b"z" * 8)
    buf.write(PAGE - 8, bytes(PAGE))  # a bulk write makes both pages dense
    assert buf._state == bytearray([0xFF, 0xFF])
    assert [buf.read_u64(i * LINE) for i in range(DENSE_LINES)] == [
        i + 1 for i in range(DENSE_LINES)]
    assert buf.read(DENSE_LINES * LINE + 3, 1) == b"x"
    assert buf.read(PAGE + 100, 8) == bytes(8)


def test_buffer_u64_roundtrip():
    buf = RdmaBuffer(64, 0, 0)
    buf.write_u64(8, 0xDEADBEEF12345678)
    assert buf.read_u64(8) == 0xDEADBEEF12345678


def test_buffer_u64_wraps_modulo_2_64():
    buf = RdmaBuffer(64, 0, 0)
    buf.write_u64(0, 2**64 - 1)
    buf.write_u64(0, buf.read_u64(0) + 2)  # FAA-style wrap
    assert buf.read_u64(0) == 1


def test_buffer_u64_alignment_enforced():
    buf = RdmaBuffer(64, 0, 0)
    with pytest.raises(ValueError):
        buf.read_u64(4)


def test_buffer_size_validation():
    with pytest.raises(ValueError):
        RdmaBuffer(0, 0, 0)


def test_allocator_page_aligns_and_tracks():
    params = HardwareParams()
    alloc = RegionAllocator(params, machine_id=0)
    buf = alloc.allocate(100, socket=0)
    assert buf.size == params.translation_page_bytes
    assert alloc.used(0) == params.translation_page_bytes
    assert alloc.used(1) == 0


def test_allocator_exhaustion():
    params = HardwareParams().derive(dram_per_socket=2 * 4096)
    alloc = RegionAllocator(params, 0)
    alloc.allocate(4096, 0)
    alloc.allocate(4096, 0)
    with pytest.raises(MemoryError):
        alloc.allocate(1, 0)


def test_allocator_free_returns_accounting():
    params = HardwareParams()
    alloc = RegionAllocator(params, 0)
    buf = alloc.allocate(4096, 1)
    alloc.free(buf)
    assert alloc.used(1) == 0


def test_freed_buffer_refuses_every_access():
    alloc = RegionAllocator(HardwareParams(), 0)
    buf = alloc.allocate(4096, 0)
    buf.write_u64(0, 7)
    alloc.free(buf)
    for access in (lambda: buf.read(0, 8), lambda: buf.read(0, 0),
                   lambda: buf.write(0, b"x"), lambda: buf.read_u64(0),
                   lambda: buf.write_u64(0, 1)):
        with pytest.raises(ValueError, match="freed"):
            access()


def test_allocator_rejects_double_free():
    params = HardwareParams().derive(dram_per_socket=4096)
    alloc = RegionAllocator(params, 0)
    buf = alloc.allocate(4096, 0)
    alloc.free(buf)
    with pytest.raises(ValueError):
        alloc.free(buf)
    assert alloc.used(0) == 0
    alloc.allocate(4096, 0)
    with pytest.raises(MemoryError):
        alloc.allocate(4096, 0)


def test_allocator_rejects_foreign_buffer():
    params = HardwareParams()
    a0 = RegionAllocator(params, 0)
    a1 = RegionAllocator(params, 1)
    buf = a0.allocate(4096, 0)
    with pytest.raises(ValueError):
        a1.free(buf)


def test_allocator_socket_validation():
    alloc = RegionAllocator(HardwareParams(), 0)
    with pytest.raises(ValueError):
        alloc.allocate(64, socket=5)
    with pytest.raises(ValueError):
        alloc.allocate(0, socket=0)


def test_page_keys_are_page_span_offset_by_the_key_base():
    """The translation keys an access touches (``Rnic.translate``, the
    SRAM's page-span lookup) are exactly ``page_span``'s pages, offset by
    the region's key base, in page order; two regions' keys never
    collide; bad ranges still raise."""
    from repro import build
    from repro.hw import MetadataCache

    _sim, _cluster, ctx = build(machines=1)
    a = ctx.register(0, 1 << 20)
    b = ctx.register(0, 1 << 20)
    assert a.key_base == a.mr_id << 32 and b.key_base == b.mr_id << 32

    def page_keys(mr, offset, length):
        cache = MetadataCache(capacity=1 << 10, miss_penalty_ns=1.0)
        misses = cache.lookup_span(mr, offset, length)
        keys = list(cache._entries)
        assert misses == len(keys)
        return keys

    rng = random.Random(0)
    seen = {a.mr_id: set(), b.mr_id: set()}
    for _ in range(2000):
        mr = rng.choice((a, b))
        offset = rng.randrange(1 << 20)
        length = rng.choice([0, 1, 8, 64, 4096, 9000])
        keys = page_keys(mr, offset, length)
        assert keys == [mr.key_base + p for p in
                        page_span(offset, length, mr.page_size)]
        seen[mr.mr_id].update(keys)
    assert seen[a.mr_id] and seen[b.mr_id]
    assert not seen[a.mr_id] & seen[b.mr_id]
    # The last page of one region and the first of the next stay apart.
    last = page_keys(a, (1 << 20) - 1, 1)
    assert not set(last) & set(page_keys(b, 0, 0))
    rnic = _cluster[0].rnic
    for mr in (a, b):
        for bad in ((-1, 8), (0, -1)):
            with pytest.raises(ValueError):
                rnic.translate(mr, *bad)
    # A word offset must fit the key's low 32 bits.
    with pytest.raises(ValueError, match="4 GiB"):
        MemoryRegion(types.SimpleNamespace(size=(1 << 32) + 8), 4096)
