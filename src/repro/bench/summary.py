"""Headline summary — the abstract's four application speedups.

"four typical applications, disaggregated hashtable, distributed shuffle,
distributed join, and distributed log, are improved by
2.7x/5.8x/5.3x/9.1x respectively."
"""

from __future__ import annotations

from repro.apps.join import single_machine_join_ns
from repro.bench.fig12_hashtable import CONFIGS as HT_CONFIGS
from repro.bench.fig12_hashtable import measure as ht_measure
from repro.bench.fig15_shuffle import measure as shuffle_measure
from repro.bench.fig16_join import join_time_ns
from repro.bench.fig19_dlog import measure as dlog_measure
from repro.bench.report import FigureResult

__all__ = ["points", "run_point", "assemble"]

APPS = ["hashtable", "shuffle", "join", "distributed log"]


def points(quick: bool = True) -> list:
    return [{"app": app} for app in APPS]


def run_point(point: dict, quick: bool = True) -> list:
    """[baseline, optimized] for one application."""
    app = point["app"]
    if app == "hashtable":
        # Best Reorder config vs Basic (Fig 12).
        return [max(ht_measure(n, HT_CONFIGS[config](), quick)
                    for n in (10, 14))
                for config in ("Basic HashTable",
                               "+Reorder-OPT (theta=16)")]
    if app == "shuffle":
        # SP batch 16 vs basic at 16 executors (Fig 15).
        return [shuffle_measure(16, quick, strategy="basic", batch_size=1),
                shuffle_measure(16, quick, strategy="sp", batch_size=16)]
    if app == "join":
        # All-opt distributed vs single machine at 2^26, in ns (Fig 17).
        target = 1 << 26
        return [single_machine_join_ns(target, target),
                join_time_ns(16, 16, True, quick, target=target)]
    # Distributed log: batch 32 vs batch 1, 7 engines (Fig 19).
    return [dlog_measure(7, 1, numa=True, quick=quick),
            dlog_measure(7, 32, numa=True, quick=quick)]


def assemble(values: list, quick: bool = True) -> FigureResult:
    fig = FigureResult(
        name="Summary", title="Headline application speedups "
                              "(optimized vs baseline)",
        x_label="Application", x_values=APPS,
        y_label="baseline / optimized / speedup")
    (ht_base, ht_opt), (sh_base, sh_opt), (j_base, j_opt), \
        (dl_base, dl_opt) = values
    fig.add("baseline", [ht_base, sh_base, j_base / 1e9, dl_base])
    fig.add("optimized", [ht_opt, sh_opt, j_opt / 1e9, dl_opt])
    speedups = [ht_opt / ht_base, sh_opt / sh_base, j_base / j_opt,
                dl_opt / dl_base]
    fig.add("speedup", speedups)
    for app, got, want in zip(APPS, speedups,
                              ["2.7x", "5.8x", "5.3x", "9.1x"]):
        fig.check(f"{app} speedup", f"{got:.1f}x", want)
    fig.notes.append(
        "hashtable/join baselines are MOPS/seconds respectively; the join "
        "row is in seconds (lower is better), its speedup is time ratio")
    return fig
