"""Fig 19 — distributed log throughput vs batch size and engine count.

Paper anchors: with 14 transaction engines, the NUMA-aware design reaches
17.7 MOPS vs 15.5 without (+14%); with 7 engines, batch 32 delivers a
~9.1x throughput improvement over no batching.
"""

from __future__ import annotations

from repro import build
from repro.apps.dlog import DistributedLog, LogConfig, TransactionEngine
from repro.bench.report import FigureResult
from repro.sim.stats import mops

__all__ = ["measure", "points", "run_point", "assemble"]

BATCHES_FULL = [1, 2, 4, 8, 16, 32]
BATCHES_QUICK = [1, 4, 16, 32]
ENGINES = [4, 7, 14]


def measure(n_engines: int, batch: int, numa: bool,
            quick: bool = True) -> float:
    sim, cluster, ctx = build(machines=8)
    cfg = LogConfig(batch=batch, numa=numa, move_data=False,
                    capacity_records=1 << 18)
    log = DistributedLog(ctx, machine=0, config=cfg)
    engines = []
    for i in range(n_engines):
        socket = i % ctx.params.sockets_per_machine
        machine = 1 + (i // 2) % 7
        engines.append(TransactionEngine(log, i, machine, socket))
    appends = (12 if quick else 40) * max(1, 32 // batch) // 4 + 4
    t0 = sim.now

    def client(eng):
        for _ in range(appends):
            yield from eng.append_batch()

    procs = [sim.process(client(e)) for e in engines]
    for p in procs:
        sim.run(until=p)
    total = sum(e.appended for e in engines)
    return mops(total, sim.now - t0)


def points(quick: bool = True) -> list:
    batches = BATCHES_QUICK if quick else BATCHES_FULL
    engine_counts = ENGINES if not quick else [7, 14]
    return [{"engines": n, "numa": numa, "batch": b}
            for n in engine_counts for numa in (False, True)
            for b in batches]


def run_point(point: dict, quick: bool = True) -> float:
    return measure(point["engines"], point["batch"], numa=point["numa"],
                   quick=quick)


def assemble(values: list, quick: bool = True) -> FigureResult:
    batches = BATCHES_QUICK if quick else BATCHES_FULL
    fig = FigureResult(
        name="Fig 19", title="Distributed log (512 B records, FAA-reserved "
                             "appends)",
        x_label="Batch Size", x_values=batches,
        y_label="Throughput (MOPS, records)")
    engine_counts = ENGINES if not quick else [7, 14]
    it = iter(values)
    for n in engine_counts:
        fig.add(f"{n} TX engines (*)", [next(it) for _ in batches])
        fig.add(f"{n} TX engines", [next(it) for _ in batches])
    aware14 = fig.get("14 TX engines").values[-1]
    naive14 = fig.get("14 TX engines (*)").values[-1]
    fig.check("14 engines, batch 32: NUMA-aware (MOPS)",
              f"{aware14:.1f}", "17.7")
    fig.check("14 engines, batch 32: naive (MOPS)",
              f"{naive14:.1f}", "15.5")
    fig.check("NUMA gain at 14 engines",
              f"+{aware14 / naive14 - 1:.0%}", "+14%")
    b7 = fig.get("7 TX engines").values
    fig.check("7 engines: batch 32 over batch 1",
              f"{b7[-1] / b7[0]:.1f}x", "~9.1x")
    fig.notes.append("(*) = without NUMA awareness")
    return fig
