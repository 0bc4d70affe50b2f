"""Table I — qualitative comparison of the three vector IO mechanisms.

Programmability is the paper's judgement (static); performance and
scalability are DERIVED from fresh measurements: peak entry throughput at
32 B (performance), retention across batch-size growth and thread growth
(scalability).
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.bench.vector_io_common import batched_throughput
from repro.core.advisor import VECTOR_IO_TABLE

__all__ = ["points", "run_point", "assemble"]

STRATEGIES = ["Doorbell", "SP", "SGL"]
_KEY = {"Doorbell": "doorbell", "SP": "sp", "SGL": "sgl"}
#: The five probes behind each strategy's derived grades (Figs 4/5 axes).
PROBES = ("b1", "b16", "t1", "t8", "big")


def _grade_performance(mops: float, best: float) -> str:
    return "high" if mops > 0.6 * best else "low"

def _grade_scalability(batch_gain: float, thread_keep: float,
                       large_payload_keep: float) -> str:
    """Derived grade: batch-size gain and thread retention are the two
    scalability axes of Figs 4/5; a strategy that keeps less than ~60% of
    its per-thread rate at 8 threads only scales "in a small range"."""
    if batch_gain < 2.0:
        return "poor"
    if thread_keep >= 0.6 and batch_gain >= 6.0:
        return "good"
    return "good in a small range"


def points(quick: bool = True) -> list:
    return [{"strategy": s, "probe": probe}
            for s in STRATEGIES for probe in PROBES]


def run_point(point: dict, quick: bool = True) -> float:
    n = 120 if quick else 400
    k = _KEY[point["strategy"]]
    probe = point["probe"]
    if probe == "b1":
        return batched_throughput(k, 1, 32, n_batches=n)["mops"]
    if probe == "b16":
        return batched_throughput(k, 16, 32, n_batches=n)["mops"]
    if probe == "t1":
        return batched_throughput(k, 4, 32, n_batches=n, depth=1,
                                  threads=1)["per_thread"]
    if probe == "t8":
        return batched_throughput(k, 4, 32, n_batches=n, depth=1,
                                  threads=8)["per_thread"]
    return batched_throughput(k, 16, 1024, n_batches=n)["mops"]


def assemble(values: list, quick: bool = True) -> FigureResult:
    strategies = STRATEGIES
    measured = {}
    it = iter(values)
    for s in strategies:
        raw = {probe: next(it) for probe in PROBES}
        measured[s] = {
            "peak": raw["b16"],
            "batch_gain": raw["b16"] / raw["b1"],
            "thread_keep": raw["t8"] / raw["t1"],
            "large_keep": raw["big"] / raw["b16"],
        }
    best = max(m["peak"] for m in measured.values())
    fig = FigureResult(
        name="Table I", title="Vector IO mechanisms compared",
        x_label="Type", x_values=strategies,
        y_label="(derived grades; see checks)")
    fig.add("peak MOPS (batch16, 32B)",
            [measured[s]["peak"] for s in strategies])
    fig.add("gain batch 1->16", [measured[s]["batch_gain"]
                                 for s in strategies])
    fig.add("kept at 8 threads", [measured[s]["thread_keep"]
                                  for s in strategies])
    fig.add("kept at 1 KB payload", [measured[s]["large_keep"]
                                     for s in strategies])
    for s in strategies:
        m = measured[s]
        perf = _grade_performance(m["peak"], best)
        scal = _grade_scalability(m["batch_gain"], m["thread_keep"],
                                  m["large_keep"])
        expected = VECTOR_IO_TABLE[s]
        fig.check(f"{s} performance", perf, expected["performance"])
        fig.check(f"{s} scalability", scal, expected["scalability"])
        fig.check(f"{s} programmability (paper judgement)",
                  expected["programmability"], expected["programmability"])
    return fig
