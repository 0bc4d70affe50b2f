"""Fig 12 — disaggregated hashtable optimization breakdown.

Zipf-0.99, 100% write, 64 B entries; front-ends 1..14 against one
back-end node.  Paper anchors: Basic plateaus ~9 MOPS; +NUMA is ~14.1%
higher (~10.5); +Reorder(theta=16) peaks ~24.4 MOPS — 1.85x-2.70x over
the basic/NUMA configurations.

Deviation: with deferred (try-lock) flushing our reorder curves keep
climbing to 14 front-ends instead of peaking at 6 — the paper's decline
comes from blocking flush-lock contention, which the deferred design
avoids (see EXPERIMENTS.md).
"""

from __future__ import annotations

from repro import build
from repro.apps.hashtable import DisaggregatedHashTable, FrontEndConfig
from repro.bench.report import FigureResult
from repro.bench.runner import bench_seed
from repro.core.locks import BackoffPolicy

__all__ = ["CONFIGS", "points", "run_point", "assemble"]

FRONTENDS_FULL = [1, 2, 4, 6, 8, 10, 12, 14]
FRONTENDS_QUICK = [2, 6, 10, 14]

CONFIGS = {
    "Basic HashTable": lambda: FrontEndConfig(numa="none"),
    "+Numa-OPT": lambda: FrontEndConfig(numa="matched"),
    "+Reorder-OPT (theta=4)": lambda: FrontEndConfig(
        numa="matched", theta=4, backoff=BackoffPolicy(base_ns=1500),
        merge_flush=False),
    "+Reorder-OPT (theta=16)": lambda: FrontEndConfig(
        numa="matched", theta=16, backoff=BackoffPolicy(base_ns=1500),
        merge_flush=False),
}


def measure(n_fe: int, config: FrontEndConfig, quick: bool = True) -> float:
    sim, cluster, ctx = build(machines=8)
    table = DisaggregatedHashTable(ctx, n_fe, config, n_keys=4096,
                                   hot_fraction=0.125, block_entries=16,
                                   seed=bench_seed(0))
    measure_ns = 450_000 if quick else 1_200_000
    warmup_ns = 120_000 if quick else 300_000
    return table.run_throughput(measure_ns=measure_ns,
                                warmup_ns=warmup_ns).mops


def points(quick: bool = True) -> list:
    frontends = FRONTENDS_QUICK if quick else FRONTENDS_FULL
    return [{"config": label, "frontends": n}
            for label in CONFIGS for n in frontends]


def run_point(point: dict, quick: bool = True) -> float:
    return measure(point["frontends"], CONFIGS[point["config"]](), quick)


def assemble(values: list, quick: bool = True) -> FigureResult:
    frontends = FRONTENDS_QUICK if quick else FRONTENDS_FULL
    fig = FigureResult(
        name="Fig 12", title="Disaggregated hashtable optimizations "
                             "(Zipf 0.99, 100% write, 64 B)",
        x_label="Front-end Number", x_values=frontends,
        y_label="Throughput (MOPS)")
    it = iter(values)
    for label in CONFIGS:
        fig.add(label, [next(it) for _ in frontends])
    basic = fig.get("Basic HashTable").values
    numa = fig.get("+Numa-OPT").values
    r16 = fig.get("+Reorder-OPT (theta=16)").values
    hi = len(frontends) - 1
    fig.check("Basic plateau (MOPS)", f"{max(basic):.1f}", "~9")
    fig.check("NUMA gain at saturation",
              f"+{numa[hi] / basic[hi] - 1:.1%}", "+14.1%")
    fig.check("Reorder(16) peak (MOPS)", f"{max(r16):.1f}", "~24.4")
    fig.check("Reorder(16) over basic/NUMA",
              f"{max(max(r16) / max(basic), max(r16) / max(numa)):.2f}x",
              "1.85-2.70x")
    return fig
