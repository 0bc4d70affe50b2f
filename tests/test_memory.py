"""Unit tests for buffers, the allocator, and page math."""

import os
import random

import numpy as np
import pytest

from repro.hw import HardwareParams
from repro.memory import RdmaBuffer, RegionAllocator
from repro.memory.address import align_down, align_up, page_span, pages_of


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


def test_pages_of_keys():
    assert pages_of(7, 4090, 64, 4096) == [(7, 0), (7, 1)]


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


def _smaps_kb(lo: int, hi: int) -> dict[str, int]:
    """``Rss`` and ``AnonHugePages`` (kB) of the mappings in [lo, hi)."""
    totals = {"Rss:": 0, "AnonHugePages:": 0}
    inside = False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            field = line.split(maxsplit=2)
            if not field[0].endswith(":"):  # a mapping's address-range header
                start, end = (int(a, 16) for a in field[0].split("-"))
                inside = start < hi and end > lo
            elif inside and field[0] in totals:
                totals[field[0]] += int(field[1])
    return totals


def _thp_never() -> bool:
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as f:
            return "[never]" in f.read()
    except OSError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps") or _thp_never(),
                    reason="needs /proc/self/smaps and transparent huge pages")
def test_buffer_commits_only_written_pages():
    size, writes = 64 << 20, 512
    buf = RdmaBuffer(size, 0, 0)
    lo = buf.data.ctypes.data
    # The kernel may merge the mapping with a live neighbour that has the
    # same flags (another buffer), so count what the writes add.
    before = _smaps_kb(lo, lo + size)
    rng = random.Random(0)
    for _ in range(writes):
        buf.write_u64(rng.randrange(size // 8) * 8, 1)
    kb = _smaps_kb(lo, lo + size)
    assert kb["AnonHugePages:"] == 0
    assert kb["Rss:"] - before["Rss:"] <= writes * 4 + 64


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
