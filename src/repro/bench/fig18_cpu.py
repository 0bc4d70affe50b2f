"""Fig 18 — CPU cost of SP vs SGL by entry size.

The paper measures CPU cycles burned by the shuffle's batching layer with
7 executors and entry sizes 64 B..4096 B.  SGL hands the gather to the
RNIC, so its CPU cost per entry is flat while SP's grows with entry size
(memcpy); at 4096 B, SGL costs ~67.2% less CPU.
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.bench.vector_io_common import batched_throughput

__all__ = ["points", "run_point", "assemble"]

SIZES_FULL = [64, 256, 1024, 4096]
BATCH = 16


def points(quick: bool = True) -> list:
    return [{"strategy": strategy, "size": s}
            for strategy in ("sp", "sgl") for s in SIZES_FULL]


def run_point(point: dict, quick: bool = True) -> float:
    n = 100 if quick else 300
    return batched_throughput(point["strategy"], BATCH, point["size"],
                              n_batches=n)["cpu_ns_per_entry"]


def assemble(values: list, quick: bool = True) -> FigureResult:
    sizes = SIZES_FULL
    fig = FigureResult(
        name="Fig 18", title="CPU consumption: SP vs SGL by entry size "
                             "(batch 16)",
        x_label="Entry Size (Bytes)", x_values=sizes,
        y_label="CPU ns per entry")
    sp = list(values[:len(sizes)])
    sgl = list(values[len(sizes):])
    fig.add("SP", sp)
    fig.add("SGL", sgl)
    fig.check("SGL CPU saving at 4096 B",
              f"-{1 - sgl[-1] / sp[-1]:.1%}", "~-67.2%")
    fig.check("SGL CPU cost flat across sizes",
              f"{sgl[0]:.0f} -> {sgl[-1]:.0f} ns/entry",
              "no CPU involvement in the fetch phase")
    return fig
