"""Fig 4 — throughput vs batch size (32 B payload), plus local readv/writev.

Paper anchors: SP and SGL scale near-linearly with batch size while
Doorbell gains only ~1.5x from batch 1 to 32; SP is 1.11-2.14x SGL and
1.16-13.37x Doorbell; SP at batch 32 reaches ~44%/117% of local
writev/readv throughput.
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.bench.vector_io_common import batched_throughput, local_vector_mops

__all__ = ["points", "run_point", "assemble"]

BATCHES_FULL = [1, 2, 4, 8, 16, 32]
BATCHES_QUICK = [1, 4, 16, 32]
PAYLOAD = 32


def points(quick: bool = True) -> list:
    batches = BATCHES_QUICK if quick else BATCHES_FULL
    pts = [{"strategy": strategy, "batch": b}
           for strategy in ("doorbell", "sgl", "sp") for b in batches]
    pts.extend({"strategy": "local", "op": op, "batch": b}
               for op in ("write", "read") for b in batches)
    return pts


def run_point(point: dict, quick: bool = True) -> float:
    if point["strategy"] == "local":
        return local_vector_mops(point["op"], point["batch"], PAYLOAD)
    n_batches = 150 if quick else 400
    return batched_throughput(point["strategy"], point["batch"], PAYLOAD,
                              n_batches=n_batches)["mops"]


def assemble(values: list, quick: bool = True) -> FigureResult:
    batches = BATCHES_QUICK if quick else BATCHES_FULL
    fig = FigureResult(
        name="Fig 4", title="Batch strategies vs batch size (32 B payload)",
        x_label="Batch Size", x_values=batches,
        y_label="Throughput (MOPS, entries)")
    it = iter(values)
    for strategy in ("doorbell", "sgl", "sp"):
        fig.add(strategy.capitalize(), [next(it) for _ in batches])
    fig.add("Local-W", [next(it) for _ in batches])
    fig.add("Local-R", [next(it) for _ in batches])
    sp = fig.get("Sp").values
    sgl = fig.get("Sgl").values
    db = fig.get("Doorbell").values
    ratios_sgl = [s / g for s, g in zip(sp, sgl)]
    ratios_db = [s / d for s, d in zip(sp, db)]
    fig.check("SP/SGL ratio range",
              f"{min(ratios_sgl):.2f}-{max(ratios_sgl):.2f}x", "1.11-2.14x")
    fig.check("SP/Doorbell ratio range",
              f"{min(ratios_db):.2f}-{max(ratios_db):.2f}x", "1.16-13.37x")
    fig.check("Doorbell gain batch 1->32",
              f"{db[-1] / db[0]:.2f}x", "~1.5x (little improvement)")
    lw = fig.get("Local-W").values[-1]
    lr = fig.get("Local-R").values[-1]
    fig.check("SP(32) as share of Local-W", f"{sp[-1] / lw:.0%}", "~44%")
    fig.check("SP(32) as share of Local-R", f"{sp[-1] / lr:.0%}", "~117%")
    return fig
