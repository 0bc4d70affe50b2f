"""Fig 17 — join performance breakdown vs data scale (2^24..2^26).

Paper anchors: the optimizations keep a roughly constant relative gain as
input grows 4x; with everything on, the join is ~5.3x faster than the
single-machine implementation and ~10.3x faster than the naive
distributed one.
"""

from __future__ import annotations

from repro.apps.join import single_machine_join_ns
from repro.bench.fig16_join import join_time_ns
from repro.bench.report import FigureResult

__all__ = ["points", "run_point", "assemble"]

SCALES = ["2^24", "2^25", "2^26"]
_SCALE_TUPLES = {"2^24": 1 << 24, "2^25": 1 << 25, "2^26": 1 << 26}

CONFIGS = [
    ("Single Machine", None),
    ("theta=4, lambda=1 w/o NUMA", (4, 1, False)),
    ("theta=4, lambda=1", (4, 1, True)),
    ("theta=4, lambda=16", (4, 16, True)),
    ("theta=16, lambda=16", (16, 16, True)),
]


def points(quick: bool = True) -> list:
    return [{"config": label, "scale": scale}
            for label, _cfg in CONFIGS for scale in SCALES]


def run_point(point: dict, quick: bool = True) -> float:
    cfg = dict(CONFIGS)[point["config"]]
    n = _SCALE_TUPLES[point["scale"]]
    if cfg is None:
        return single_machine_join_ns(n, n) / 1e9
    theta, lam, numa = cfg
    return join_time_ns(theta, lam, numa, quick, target=n) / 1e9


def assemble(values: list, quick: bool = True) -> FigureResult:
    fig = FigureResult(
        name="Fig 17", title="Join breakdown vs data scale",
        x_label="Data Scale", x_values=SCALES,
        y_label="Time (s)")
    times: dict = {}
    it = iter(values)
    for label, _cfg in CONFIGS:
        vals = [next(it) for _ in SCALES]
        times[label] = vals
        fig.add(label, vals)
    best = times["theta=16, lambda=16"][-1]
    single = times["Single Machine"][-1]
    naive = times["theta=4, lambda=1 w/o NUMA"][-1]
    fig.check("full-opt speedup vs single machine (2^26)",
              f"{single / best:.1f}x", "~5.3x")
    fig.check("full-opt speedup vs naive distributed (2^26)",
              f"{naive / best:.1f}x", "~10.3x")
    ratios = [times["theta=4, lambda=16"][i] / times["Single Machine"][i]
              for i in range(len(SCALES))]
    fig.check("relative gain roughly constant across scales",
              f"{min(ratios):.2f}-{max(ratios):.2f}",
              "constant performance reduction")
    return fig
