"""Table III — the NUMA placement matrix for one-sided ops.

Rows: local (core, memory) placement relative to the QP's local port
socket; columns: remote (serving port, memory) placement.  ``own`` means
co-located with the port; ``alt`` means the other socket.  Each cell holds
READ and WRITE latency (us) and pipelined throughput (MOPS).

Paper anchors: the all-alternate worst case is ~55%/49% worse in
latency/throughput than the all-affine best case; memory on the alternate
socket alone costs only ~4-10% latency.
"""

from __future__ import annotations

import itertools

from repro import build
from repro.bench.report import FigureResult
from repro.bench.runner import PipelinedClient, drive_all, read_wr, write_wr
from repro.verbs import Worker

__all__ = ["points", "run_point", "assemble"]

_PLACEMENTS = ["own", "alt"]


def _measure(local_core: int, local_mem: int, remote_core: int,
             remote_mem: int, op: str, quick: bool) -> tuple[float, float]:
    """(latency_us, mops) for one placement cell."""
    sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 1 << 20, socket=local_mem)
    rmr = ctx.register(1, 1 << 20, socket=remote_mem)
    # The QP's local port anchors "own" == socket 0; the serving remote
    # port follows the remote-core placement.
    qp = ctx.create_qp(0, 1, local_port=0, remote_port=remote_core,
                       sq_socket=local_core)
    w = Worker(ctx, 0, socket=local_core)
    make = write_wr if op == "write" else read_wr
    # Latency: synchronous ops.
    lat_samples = []

    def sync_client():
        for i in range(10):
            t0 = sim.now
            yield from w.execute(qp, make(lmr, rmr, 32))
            if i >= 3:
                lat_samples.append(sim.now - t0)

    drive_all(sim, [sync_client()])
    latency_us = sum(lat_samples) / len(lat_samples) / 1000.0
    # Throughput: pipelined.
    n_ops = 400 if quick else 1500
    client = PipelinedClient(w, qp, lambda i: make(lmr, rmr, 32), depth=8)
    drive_all(sim, [client.run(n_ops, warmup=80)])
    return latency_us, client.mops


def points(quick: bool = True) -> list:
    rows = list(itertools.product(_PLACEMENTS, _PLACEMENTS))
    cols = list(itertools.product(_PLACEMENTS, _PLACEMENTS))
    return [{"lc": lc, "lm": lm, "rc": rc, "rm": rm, "op": op}
            for lc, lm in rows for rc, rm in cols
            for op in ("read", "write")]


def run_point(point: dict, quick: bool = True) -> list:
    lat, thr = _measure(
        0 if point["lc"] == "own" else 1, 0 if point["lm"] == "own" else 1,
        0 if point["rc"] == "own" else 1, 0 if point["rm"] == "own" else 1,
        point["op"], quick)
    return [lat, thr]


def assemble(values: list, quick: bool = True) -> FigureResult:
    placements = _PLACEMENTS
    cols = list(itertools.product(placements, placements))  # remote side
    rows = list(itertools.product(placements, placements))  # local side
    fig = FigureResult(
        name="Table III", title="Throughput and latency of remote "
                                "inter-socket access",
        x_label="local (core, mem)",
        x_values=[f"{c}-core/{m}-mem" for c, m in rows],
        y_label="READ us/MOPS | WRITE us/MOPS per remote placement")
    cells: dict = {}
    for point, value in zip(points(quick), values):
        cells[(point["lc"], point["lm"], point["rc"], point["rm"],
               point["op"])] = tuple(value)
    for (rc, rm) in cols:
        for op in ("read", "write"):
            fig.add(f"remote {rc}-core/{rm}-mem {op} (us)",
                    [cells[(lc, lm, rc, rm, op)][0] for lc, lm in rows])
            fig.add(f"remote {rc}-core/{rm}-mem {op} (MOPS)",
                    [cells[(lc, lm, rc, rm, op)][1] for lc, lm in rows])
    best_lat, best_thr = cells[("own", "own", "own", "own", "read")]
    worst_lat, worst_thr = cells[("alt", "alt", "alt", "alt", "read")]
    fig.check("worst-case latency penalty (read)",
              f"+{worst_lat / best_lat - 1:.0%}", "~+55%")
    fig.check("worst-case throughput penalty (read)",
              f"-{1 - worst_thr / best_thr:.0%}", "~-49%")
    mem_only_lat = cells[("own", "own", "own", "alt", "read")][0]
    fig.check("memory-only misplacement latency (read)",
              f"+{mem_only_lat / best_lat - 1:.1%}", "+4-10%")
    fig.notes.append(
        "our QPI penalties reproduce the orderings and the memory-only "
        "anchor; the absolute worst-case spread is ~15%/32% vs the paper's "
        "~31%/49% cell spread (their quoted 55% mixes in next-gen RNIC "
        "projections) — see EXPERIMENTS.md")
    return fig
