"""Fig 3 — the three batch strategies vs payload size (batch 4 and 16).

Paper anchors: below ~128 B all cases are flat; beyond, SP/SGL/local fall
linearly with payload while Doorbell "remains still" (it was never
round-trip-bound to begin with); SGL's advantage only exists below ~512 B.
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.bench.vector_io_common import batched_throughput, local_vector_mops

__all__ = ["points", "run_point", "assemble"]

SIZES_FULL = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
SIZES_QUICK = [4, 32, 128, 512, 2048]


def points(quick: bool = True) -> list:
    sizes = SIZES_QUICK if quick else SIZES_FULL
    pts = []
    for batch in (4, 16):
        for strategy in ("doorbell", "sgl", "sp"):
            pts.extend({"strategy": strategy, "batch": batch, "size": s}
                       for s in sizes)
        if batch == 4:
            pts.extend({"strategy": "local", "batch": batch, "size": s}
                       for s in sizes)
    return pts


def run_point(point: dict, quick: bool = True) -> float:
    if point["strategy"] == "local":
        return local_vector_mops("write", point["batch"], point["size"])
    n_batches = 120 if quick else 400
    return batched_throughput(point["strategy"], point["batch"],
                              point["size"], n_batches=n_batches)["mops"]


def assemble(values: list, quick: bool = True) -> FigureResult:
    sizes = SIZES_QUICK if quick else SIZES_FULL
    fig = FigureResult(
        name="Fig 3", title="Batch strategies vs payload size (one-to-one)",
        x_label="Size (Bytes)", x_values=sizes,
        y_label="Throughput (MOPS, entries)")
    it = iter(values)
    for batch in (4, 16):
        for strategy in ("doorbell", "sgl", "sp"):
            fig.add(f"{strategy.capitalize()}-size-{batch}",
                    [next(it) for _ in sizes])
        if batch == 4:
            fig.add("Local-size-4", [next(it) for _ in sizes])
    small_i = sizes.index(32)
    big_i = len(sizes) - 1
    sp16 = fig.get("Sp-size-16").values
    sgl16 = fig.get("Sgl-size-16").values
    db16 = fig.get("Doorbell-size-16").values
    fig.check("SP flat small->128B then falls",
              f"{sp16[small_i]:.1f} -> {sp16[big_i]:.1f}",
              "linearly decreasing past 128B")
    fig.check("Doorbell roughly flat across sizes",
              f"{db16[small_i]:.1f} -> {db16[big_i]:.1f}",
              "remains still")
    fig.check("SGL beats Doorbell at small payloads",
              f"{sgl16[small_i] / db16[small_i]:.2f}x", ">1x")
    fig.check("SGL loses its edge past ~512B (vs Doorbell)",
              f"{sgl16[big_i] / db16[big_i]:.2f}x", "advantage shrinks")
    return fig
