"""Fig 16 — distributed join under batching / NUMA / executor sweeps.

The paper joins fixed 16 M-tuple relations.  We run the full pipeline in
the simulator on a sample (throughput is steady-state) and report times
scaled to 2^24 tuples per relation — documented in EXPERIMENTS.md.

Anchors: (a) with 4 executors, batching cuts execution time up to 37%
vs non-batching, and NUMA-awareness saves 12-30%; baseline standalone
time is 6.46 s.  (b) 1/time scales sub-linearly with executors; batch 16
stays within ~22% of ideal at 16 executors.
"""

from __future__ import annotations

from repro import build
from repro.apps.join import DistributedJoin, JoinConfig, single_machine_join_ns
from repro.bench.report import FigureResult
from repro.bench.runner import bench_seed

__all__ = ["join_time_ns", "points", "run_point", "assemble"]

TARGET_TUPLES = 1 << 24
BATCHES_FULL = [1, 2, 4, 8, 16, 32]
BATCHES_QUICK = [1, 4, 16, 32]
EXECUTORS_FULL = [2, 4, 6, 8, 12, 16]
EXECUTORS_QUICK = [2, 4, 8, 16]


def join_time_ns(executors: int, batch: int, numa: bool,
                 quick: bool = True, target: int = TARGET_TUPLES) -> float:
    sample = 2048 if quick else 8192
    sim, cluster, ctx = build(machines=8)
    cfg = JoinConfig(executors=executors, batch=batch, numa=numa)
    join = DistributedJoin(ctx, cfg, tuples_per_relation=sample,
                           seed=bench_seed(9))
    return join.run().estimate_time_ns(target)


def points(quick: bool = True) -> list:
    batches = BATCHES_QUICK if quick else BATCHES_FULL
    executors = EXECUTORS_QUICK if quick else EXECUTORS_FULL
    pts = [{"panel": "batch", "theta": theta, "numa": numa, "batch": b}
           for theta in (4, 16) for numa in (True, False)
           for b in batches]
    pts.extend({"panel": "threads", "lam": lam, "executors": n}
               for lam in (4, 16) for n in executors)
    return pts


def run_point(point: dict, quick: bool = True) -> float:
    if point["panel"] == "batch":
        return join_time_ns(point["theta"], point["batch"], point["numa"],
                            quick) / 1e9
    return join_time_ns(point["executors"], point["lam"], True, quick)


def assemble(values: list, quick: bool = True) -> list:
    """Both panels, in points() order: [16a, 16b]."""
    batches = BATCHES_QUICK if quick else BATCHES_FULL
    n_batch = 4 * len(batches)
    return [_assemble_batch(values[:n_batch], quick),
            _assemble_threads(values[n_batch:], quick)]


def _assemble_batch(values: list, quick: bool = True) -> FigureResult:
    batches = BATCHES_QUICK if quick else BATCHES_FULL
    fig = FigureResult(
        name="Fig 16a", title="Join execution time vs batch size "
                              "(2^24-tuple relations)",
        x_label="Batch Size", x_values=batches,
        y_label="Execution Time (s)")
    series = {}
    it = iter(values)
    for theta in (4, 16):
        for numa in (True, False):
            label = (f"theta={theta}" if numa
                     else f"(no NUMA) theta={theta}")
            series[label] = [next(it) for _ in batches]
            fig.add(label, series[label])
    single_s = single_machine_join_ns(TARGET_TUPLES, TARGET_TUPLES) / 1e9
    fig.check("standalone baseline (s)", f"{single_s:.2f}", "6.46")
    t4 = series["theta=4"]
    fig.check("batching reduction (theta=4, batch 1 -> 32)",
              f"-{1 - t4[-1] / t4[0]:.0%}", "up to -37%")
    no_numa = series["(no NUMA) theta=4"]
    numa_savings = [1 - a / b for a, b in zip(t4, no_numa)]
    fig.check("NUMA-awareness savings",
              f"{min(numa_savings):.0%}-{max(numa_savings):.0%}", "12%-30%")
    return fig


def _assemble_threads(values: list, quick: bool = True) -> FigureResult:
    executors = EXECUTORS_QUICK if quick else EXECUTORS_FULL
    fig = FigureResult(
        name="Fig 16b", title="Join inverse execution time vs executors",
        x_label="Thread Number", x_values=executors,
        y_label="1 / Execution Time (1/s)")
    it = iter(values)
    for lam in (4, 16):
        times = [next(it) for _ in executors]
        fig.add(f"lambda={lam}", [1e9 / t for t in times])
    base = fig.get("lambda=16").values[0] / executors[0]
    fig.add("ideal", [base * n for n in executors])
    l16 = fig.get("lambda=16").values
    ideal = fig.get("ideal").values
    fig.check("lambda=16 vs ideal at max executors",
              f"-{1 - l16[-1] / ideal[-1]:.0%}", "~-22%")
    return fig
