"""Measurement helpers: latency accumulators and unit conversions.

The paper reports latency in microseconds and throughput in MOPS (million
operations per second).  With simulator time in nanoseconds:

* 1 op / 1000 ns == 1 MOPS, so ``MOPS = ops / elapsed_us``.
* latency_us = latency_ns / 1000.

Aggregation semantics:

* :class:`StatAccumulator` keeps mean/variance via Welford's online
  algorithm — O(1) memory, no catastrophic cancellation — and supports
  ``merge`` (Chan's parallel formula) so per-client accumulators can be
  combined into a run total without keeping raw samples.  Percentiles
  *do* require samples; callers that quote tails keep their own lists
  and use :func:`percentiles`.
* :func:`percentile` / :func:`percentiles` use linear interpolation
  between closest ranks (numpy's default convention), so quoted p50/p99
  match ``np.percentile`` on the same data.
* Throughput is :func:`mops` over whatever op count and span the
  caller measured; SLO tracking (``tenancy/metrics.py``) keeps its raw
  samples instead of a moving window.
* All helpers are wall-clock-free and allocation-light; they appear on
  fast paths (per-completion accounting), so keep them cheap — see
  docs/PERFORMANCE.md.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["StatAccumulator", "ns_to_us", "mops", "percentile",
           "percentiles"]


def ns_to_us(ns: float) -> float:
    return ns / 1000.0


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``samples``, linearly
    interpolated between closest ranks; 0.0 for an empty sequence.

    Sorts a copy — for repeated queries over one sample set, sort once and
    use :func:`percentiles`.
    """
    return percentiles(sorted(samples), [q])[0]


def percentiles(sorted_samples: Sequence[float],
                qs: Sequence[float]) -> list[float]:
    """Percentiles of an already-sorted sample sequence (see
    :func:`percentile`)."""
    n = len(sorted_samples)
    out = []
    for q in qs:
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100]: {q}")
        if n == 0:
            out.append(0.0)
            continue
        rank = (n - 1) * q / 100.0
        lo = math.floor(rank)
        hi = math.ceil(rank)
        frac = rank - lo
        out.append(sorted_samples[lo] * (1 - frac) + sorted_samples[hi] * frac)
    return out


def mops(ops: int, elapsed_ns: float) -> float:
    """Million operations per second for ``ops`` completed in ``elapsed_ns``."""
    if elapsed_ns <= 0:
        return 0.0
    return ops * 1000.0 / elapsed_ns


class StatAccumulator:
    """Streaming count/mean/min/max/variance (Welford) for latency samples."""

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "StatAccumulator") -> None:
        """Fold another accumulator in (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StatAccumulator({self.name!r}, n={self.count}, "
            f"mean={self.mean:.1f}, min={self.min:.1f}, max={self.max:.1f})"
        )

