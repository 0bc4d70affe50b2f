"""Fig 13 — sensitivity of the hashtable's consolidation optimization.

(a) vs hot-key proportion 1/4..1/32 of the key space: throughput falls as
    the hot area shrinks, but only by ~6 MOPS over the whole range (Zipf
    0.99 concentrates traffic on few keys anyway);
(b) vs consolidation batch size theta = 1..16: rising but sub-linear.
"""

from __future__ import annotations

from repro import build
from repro.apps.hashtable import DisaggregatedHashTable, FrontEndConfig
from repro.bench.report import FigureResult
from repro.bench.runner import bench_seed
from repro.core.locks import BackoffPolicy
from repro.workloads.zipf import ZipfGenerator

__all__ = ["points", "run_point", "assemble"]

PROPORTIONS = ["1/4", "1/8", "1/16", "1/32"]
THETAS_FULL = [1, 2, 4, 8, 16]
THETAS_QUICK = [1, 4, 16]
N_FE = 10


def _measure(hot_fraction: float, theta: int, quick: bool) -> float:
    sim, cluster, ctx = build(machines=8)
    cfg = FrontEndConfig(numa="matched", theta=theta,
                         backoff=BackoffPolicy(base_ns=1500),
                         merge_flush=False)
    table = DisaggregatedHashTable(ctx, N_FE, cfg, n_keys=4096,
                                   hot_fraction=hot_fraction,
                                   block_entries=16, seed=bench_seed(0))
    measure_ns = 400_000 if quick else 1_000_000
    return table.run_throughput(measure_ns=measure_ns,
                                warmup_ns=100_000).mops


def points(quick: bool = True) -> list:
    thetas = THETAS_QUICK if quick else THETAS_FULL
    pts = [{"panel": "hot", "proportion": p} for p in PROPORTIONS]
    pts.extend({"panel": "hot-share", "proportion": p} for p in PROPORTIONS)
    pts.extend({"panel": "batch", "theta": t} for t in thetas)
    return pts


def run_point(point: dict, quick: bool = True) -> float:
    panel = point["panel"]
    if panel == "hot":
        return _measure(1.0 / int(point["proportion"].split("/")[1]), 16,
                        quick)
    if panel == "hot-share":
        zipf = ZipfGenerator(4096, theta=0.99)
        hot = 4096 // int(point["proportion"].split("/")[1])
        return 100 * zipf.hot_traffic_share(hot)
    return _measure(0.125, point["theta"], quick)


def _assemble_hot(values: list, shares: list) -> FigureResult:
    fig = FigureResult(
        name="Fig 13a", title="Consolidation vs hot-key proportion "
                              f"({N_FE} front-ends, theta=16)",
        x_label="Hot Key Proportion", x_values=PROPORTIONS,
        y_label="Throughput (MOPS)")
    fig.add("Consolidation-OPT", list(values))
    fig.add("hot traffic share (%)", list(shares))
    fig.check("drop from 1/4 to 1/32",
              f"{values[0] - values[-1]:.1f} MOPS",
              "~6 MOPS (gentle decline)")
    fig.check("monotone decline",
              str(list(values) == sorted(values, reverse=True)), "True")
    return fig


def _assemble_batch(values: list, quick: bool) -> FigureResult:
    thetas = THETAS_QUICK if quick else THETAS_FULL
    fig = FigureResult(
        name="Fig 13b", title="Consolidation vs batch size "
                              f"({N_FE} front-ends, 1/8 hot keys)",
        x_label="Batch Size", x_values=thetas,
        y_label="Throughput (MOPS)")
    fig.add("Consolidation-OPT", list(values))
    fig.check("rising with theta",
              str(list(values) == sorted(values)), "True")
    fig.check("sub-linear growth (16x theta -> gain)",
              f"{values[-1] / values[0]:.1f}x", "<<16x")
    return fig


def assemble(values: list, quick: bool = True) -> list:
    """Both panels, in points() order: [13a, 13b]."""
    n = len(PROPORTIONS)
    return [_assemble_hot(values[:n], values[n:2 * n]),
            _assemble_batch(values[2 * n:], quick)]
