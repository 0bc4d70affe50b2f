"""Fig 8 — IO consolidation: 32 B random writes, native vs theta sweep.

Paper anchor: with 1 KB aligned blocks, theta=16 lifts throughput ~7.49x
over the native access path.
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.bench.runner import bench_seed, drive_all, fresh_rig, write_wr
from repro.core.consolidation import IoConsolidator
from repro.sim import make_rng
from repro.sim.stats import mops
from repro.verbs import Worker

__all__ = ["points", "run_point", "assemble"]

THETAS_FULL = [1, 2, 4, 8, 16]
THETAS_QUICK = [1, 4, 16]
PAYLOAD = 32
BLOCK = 1024
#: Hot window: writes land randomly over these blocks (a skewed region).
WINDOW = 64 * BLOCK


def _native_mops(n_ops: int) -> float:
    sim, ctx, lmr, rmr, qp, w = fresh_rig(mr_bytes=WINDOW)
    rng = make_rng(bench_seed(5))
    t = {}

    def client():
        t["start"] = sim.now
        for _ in range(n_ops):
            off = int(rng.integers(0, WINDOW // PAYLOAD)) * PAYLOAD
            yield from w.execute(qp, write_wr(lmr, rmr, PAYLOAD, off))

    drive_all(sim, [client()])
    return mops(n_ops, sim.now - t["start"])


def _consolidated_mops(theta: int, n_ops: int) -> float:
    sim, cluster = None, None
    sim, ctx, lmr, rmr, qp, w = fresh_rig(mr_bytes=WINDOW)
    cons = IoConsolidator(w, qp, lmr, rmr, block_bytes=BLOCK, theta=theta,
                          move_data=False)
    rng = make_rng(bench_seed(5))
    t = {}

    def client():
        t["start"] = sim.now
        for _ in range(n_ops):
            block = int(rng.integers(0, WINDOW // BLOCK))
            slot = int(rng.integers(0, BLOCK // PAYLOAD))
            yield from cons.write(block * BLOCK + slot * PAYLOAD, None,
                                  length=PAYLOAD)
        yield from cons.flush_all()

    drive_all(sim, [client()])
    return mops(n_ops, sim.now - t["start"])


def points(quick: bool = True) -> list:
    thetas = THETAS_QUICK if quick else THETAS_FULL
    return ([{"mode": "native"}]
            + [{"mode": "theta", "theta": t} for t in thetas])


def run_point(point: dict, quick: bool = True) -> float:
    n_ops = 1500 if quick else 5000
    if point["mode"] == "native":
        return _native_mops(n_ops)
    return _consolidated_mops(point["theta"], n_ops)


def assemble(values: list, quick: bool = True) -> FigureResult:
    thetas = THETAS_QUICK if quick else THETAS_FULL
    fig = FigureResult(
        name="Fig 8", title="IO consolidation (32 B random writes, "
                            "1 KB aligned blocks)",
        x_label="Consolidation Size theta", x_values=["Native"] + thetas,
        y_label="Throughput (MOPS)")
    fig.add("IO consolidation", list(values))
    native = fig.series[0].values[0]
    best = fig.series[0].values[-1]
    fig.check("theta=16 speedup over native", f"{best / native:.2f}x",
              "~7.49x")
    return fig
