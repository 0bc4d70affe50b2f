"""Unit tests for measurement helpers."""

import math

import pytest

from repro.sim import StatAccumulator
from repro.sim.stats import mops, ns_to_us


def test_unit_conversions():
    assert ns_to_us(2500) == 2.5
    # 1 op per 1000 ns is exactly 1 MOPS.
    assert mops(1, 1000) == pytest.approx(1.0)
    assert mops(4700, 1_000_000) == pytest.approx(4.7)
    assert mops(10, 0) == 0.0


def test_stat_accumulator_moments():
    acc = StatAccumulator()
    for x in [1.0, 2.0, 3.0, 4.0]:
        acc.add(x)
    assert acc.count == 4
    assert acc.mean == pytest.approx(2.5)
    assert acc.min == 1.0
    assert acc.max == 4.0
    assert acc.variance == pytest.approx(5.0 / 3.0)
    assert acc.stdev == pytest.approx(math.sqrt(5.0 / 3.0))


def test_stat_accumulator_merge_matches_single_stream():
    a, b, combined = StatAccumulator(), StatAccumulator(), StatAccumulator()
    xs = [5.0, 1.0, 9.0, 2.0, 7.0, 3.0]
    for x in xs[:3]:
        a.add(x)
        combined.add(x)
    for x in xs[3:]:
        b.add(x)
        combined.add(x)
    a.merge(b)
    assert a.count == combined.count
    assert a.mean == pytest.approx(combined.mean)
    assert a.variance == pytest.approx(combined.variance)
    assert a.min == combined.min
    assert a.max == combined.max


def test_stat_accumulator_merge_empty():
    a, b = StatAccumulator(), StatAccumulator()
    a.add(2.0)
    a.merge(b)  # merging empty changes nothing
    assert a.count == 1
    b.merge(a)  # merging into empty copies
    assert b.count == 1
    assert b.mean == 2.0

