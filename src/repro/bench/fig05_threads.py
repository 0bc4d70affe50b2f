"""Fig 5 — per-thread throughput vs thread count (batch 4, 32 B payload).

Paper anchors: SP 1.05-1.20x SGL and 2.21-4.47x Doorbell; thread count
barely moves SP/SGL (SGL loses ~25% from 1 to 8 threads) while Doorbell
loses ~60% — its per-entry WQEs saturate the shared execution unit.
Synchronous batches (depth 1), as the low absolute numbers in the paper's
plot imply.
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.bench.vector_io_common import batched_throughput

__all__ = ["points", "run_point", "assemble"]

THREADS_FULL = [1, 2, 3, 4, 5, 6, 7, 8]
THREADS_QUICK = [1, 2, 4, 8]
BATCH = 4
PAYLOAD = 32


def points(quick: bool = True) -> list:
    threads = THREADS_QUICK if quick else THREADS_FULL
    return [{"strategy": strategy, "threads": t}
            for strategy in ("doorbell", "sgl", "sp") for t in threads]


def run_point(point: dict, quick: bool = True) -> float:
    n_batches = 150 if quick else 400
    return batched_throughput(point["strategy"], BATCH, PAYLOAD,
                              n_batches=n_batches, depth=1,
                              threads=point["threads"])["per_thread"]


def assemble(values: list, quick: bool = True) -> FigureResult:
    threads = THREADS_QUICK if quick else THREADS_FULL
    fig = FigureResult(
        name="Fig 5", title="Per-thread throughput vs thread number "
                            "(batch 4, 32 B)",
        x_label="Thread Number", x_values=threads,
        y_label="Per-thread Throughput (MOPS, entries)")
    it = iter(values)
    for strategy in ("doorbell", "sgl", "sp"):
        fig.add(strategy.capitalize(), [next(it) for _ in threads])
    sp = fig.get("Sp").values
    sgl = fig.get("Sgl").values
    db = fig.get("Doorbell").values
    fig.check("SP/SGL per-thread ratio",
              f"{min(s / g for s, g in zip(sp, sgl)):.2f}-"
              f"{max(s / g for s, g in zip(sp, sgl)):.2f}x", "1.05-1.20x")
    fig.check("SP/Doorbell per-thread ratio",
              f"{min(s / d for s, d in zip(sp, db)):.2f}-"
              f"{max(s / d for s, d in zip(sp, db)):.2f}x", "2.21-4.47x")
    fig.check("SGL drop 1 -> 8 threads",
              f"{1 - sgl[-1] / sgl[0]:.0%}", "~25%")
    fig.check("Doorbell drop 1 -> 8 threads",
              f"{1 - db[-1] / db[0]:.0%}", "~60%")
    return fig
