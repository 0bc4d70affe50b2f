"""Unit tests for the RNIC metadata SRAM cache."""

import types

import pytest

from repro.hw import MetadataCache


def test_miss_then_hit():
    c = MetadataCache(capacity=4, miss_penalty_ns=100.0)
    assert c.lookup("a") == 100.0
    assert c.lookup("a") == 0.0
    assert c.hits == 1 and c.misses == 1


def test_lru_eviction_order():
    c = MetadataCache(capacity=2, miss_penalty_ns=1.0)
    c.lookup("a")
    c.lookup("b")
    c.lookup("a")       # refresh a; b is now LRU
    c.lookup("c")       # evicts b
    assert "a" in c and "c" in c and "b" not in c
    assert c.evictions == 1


def test_capacity_never_exceeded():
    c = MetadataCache(capacity=8, miss_penalty_ns=1.0)
    for i in range(100):
        c.lookup(i)
    assert len(c) == 8


def test_lookup_span_accumulates_penalties():
    """A span pays one miss penalty per page it has to fetch; with 1-byte
    pages and key base 0 the keys are the byte offsets."""
    c = MetadataCache(capacity=16, miss_penalty_ns=50.0)
    mr = types.SimpleNamespace(key_base=0, page_size=1)
    assert c.lookup_span(mr, 1, 3) == 150.0   # keys 1, 2, 3
    assert c.lookup_span(mr, 2, 3) == 50.0    # keys 2, 3, 4


def test_sequential_pattern_mostly_hits():
    """Sequential page touches (repeat visits) hit; that's the Fig 6 story."""
    c = MetadataCache(capacity=4, miss_penalty_ns=1.0)
    # 128 ops over one page: 1 miss, 127 hits.
    for _ in range(128):
        c.lookup(("mr", 0))
    assert c.misses == 1
    assert c.hit_rate > 0.99


def test_random_over_large_region_mostly_misses():
    c = MetadataCache(capacity=4, miss_penalty_ns=1.0)
    for i in range(100):
        c.lookup(i % 50)  # working set 50 pages >> capacity 4
    assert c.hit_rate == 0.0


def test_invalidate_and_clear():
    c = MetadataCache(capacity=4, miss_penalty_ns=1.0)
    c.lookup("x")
    c.invalidate("x")
    assert "x" not in c
    c.lookup("y")
    c.clear()
    assert len(c) == 0


def test_reset_stats():
    c = MetadataCache(capacity=4, miss_penalty_ns=1.0)
    c.lookup("a")
    c.lookup("a")
    c.reset_stats()
    assert c.hits == 0 and c.misses == 0
    assert "a" in c  # contents survive a stats reset


def test_validation():
    with pytest.raises(ValueError):
        MetadataCache(capacity=0, miss_penalty_ns=1.0)
    with pytest.raises(ValueError):
        MetadataCache(capacity=1, miss_penalty_ns=-1.0)
