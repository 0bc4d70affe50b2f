"""Fig 15 — distributed shuffle throughput vs executor count.

Paper anchors: at 16 executors / batch 16, SGL is ~4.8x and SP ~5.8x the
basic (per-entry synchronous write) shuffle; SGL scales worse with larger
batch sizes than SP (RNIC-side gather limits).
"""

from __future__ import annotations

from repro import build
from repro.apps.shuffle import DistributedShuffle, ShuffleConfig
from repro.bench.report import FigureResult
from repro.bench.runner import bench_seed

__all__ = ["CONFIGS", "points", "run_point", "assemble"]

EXECUTORS_FULL = [2, 4, 6, 8, 10, 12, 14, 16]
EXECUTORS_QUICK = [4, 8, 16]

CONFIGS = {
    "Basic Shuffle": dict(strategy="basic", batch_size=1),
    "+SGL(Batch=4)": dict(strategy="sgl", batch_size=4),
    "+SGL(Batch=16)": dict(strategy="sgl", batch_size=16),
    "+SP(Batch=4)": dict(strategy="sp", batch_size=4),
    "+SP(Batch=16)": dict(strategy="sp", batch_size=16),
}


def measure(n_executors: int, quick: bool = True, **cfg_kw) -> float:
    sim, cluster, ctx = build(machines=8)
    entries = 600 if quick else 2000
    cfg = ShuffleConfig(numa=True, move_data=False, **cfg_kw)
    shuffle = DistributedShuffle(ctx, n_executors, cfg,
                                 entries_per_executor=entries,
                                 seed=bench_seed(7))
    return shuffle.run().mops


def points(quick: bool = True) -> list:
    executors = EXECUTORS_QUICK if quick else EXECUTORS_FULL
    return [{"config": label, "executors": n}
            for label in CONFIGS for n in executors]


def run_point(point: dict, quick: bool = True) -> float:
    return measure(point["executors"], quick, **CONFIGS[point["config"]])


def assemble(values: list, quick: bool = True) -> FigureResult:
    executors = EXECUTORS_QUICK if quick else EXECUTORS_FULL
    fig = FigureResult(
        name="Fig 15", title="Distributed shuffle (push-based, all-to-all)",
        x_label="Executor Number", x_values=executors,
        y_label="Throughput (MOPS, entries)")
    it = iter(values)
    for label in CONFIGS:
        fig.add(label, [next(it) for _ in executors])
    basic = fig.get("Basic Shuffle").values[-1]
    sgl16 = fig.get("+SGL(Batch=16)").values[-1]
    sp16 = fig.get("+SP(Batch=16)").values[-1]
    fig.check("SGL(16) over basic at max executors",
              f"{sgl16 / basic:.1f}x", "~4.8x")
    fig.check("SP(16) over basic at max executors",
              f"{sp16 / basic:.1f}x", "~5.8x")
    fig.check("SP(16) >= SGL(16)", str(sp16 >= sgl16), "True")
    return fig
