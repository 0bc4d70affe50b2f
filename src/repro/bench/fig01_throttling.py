"""Fig 1 — packet throttling: latency and throughput vs payload size.

Paper anchors: WRITE/READ latency rises from 1.16/2.00 us (small) to
1.79/2.22 us at 256 B-2 KB and climbs steeply past 2 KB; throughput is flat
around 4.7/4.2 MOPS below ~256 B.
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.bench.runner import (
    PipelinedClient,
    drive_all,
    fresh_rig,
    read_wr,
    write_wr,
)

__all__ = ["points", "run_point", "assemble"]

SIZES_FULL = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]
SIZES_QUICK = [2, 16, 64, 256, 1024, 4096, 8192]


def _latency_us(size: int, op: str, n: int = 12) -> float:
    sim, ctx, lmr, rmr, qp, w = fresh_rig()
    make = write_wr if op == "write" else read_wr
    samples = []

    def client():
        for i in range(n + 4):
            t0 = sim.now
            yield from w.execute(qp, make(lmr, rmr, size))
            if i >= 4:
                samples.append(sim.now - t0)

    drive_all(sim, [client()])
    return sum(samples) / len(samples) / 1000.0


def _throughput_mops(size: int, op: str, n_ops: int) -> float:
    sim, ctx, lmr, rmr, qp, w = fresh_rig()
    make = write_wr if op == "write" else read_wr
    client = PipelinedClient(w, qp, lambda i: make(lmr, rmr, size), depth=16)
    drive_all(sim, [client.run(n_ops, warmup=150)])
    return client.mops


def points(quick: bool = True) -> list:
    sizes = SIZES_QUICK if quick else SIZES_FULL
    return [{"metric": metric, "op": op, "size": size}
            for metric in ("latency", "mops")
            for op in ("write", "read")
            for size in sizes]


def run_point(point: dict, quick: bool = True) -> float:
    if point["metric"] == "latency":
        return _latency_us(point["size"], point["op"])
    n_ops = 800 if quick else 2500
    return _throughput_mops(point["size"], point["op"], n_ops)


def assemble(values: list, quick: bool = True) -> FigureResult:
    sizes = SIZES_QUICK if quick else SIZES_FULL
    fig = FigureResult(
        name="Fig 1", title="Packet Throttling",
        x_label="Size (Bytes)", x_values=sizes,
        y_label="Latency (us) / Throughput (MOPS)")
    it = iter(values)
    for op in ("write", "read"):
        fig.add(f"{op}-latency-us", [next(it) for _ in sizes])
    for op in ("write", "read"):
        fig.add(f"{op}-mops", [next(it) for _ in sizes])
    wl = fig.get("write-latency-us").values
    rl = fig.get("read-latency-us").values
    wt = fig.get("write-mops").values
    rt = fig.get("read-mops").values
    small = sizes.index(16)
    fig.check("small WRITE latency (us)", f"{wl[small]:.2f}", "1.16")
    fig.check("small READ latency (us)", f"{rl[small]:.2f}", "2.00")
    fig.check("small WRITE throughput (MOPS)", f"{wt[small]:.2f}", "~4.7")
    fig.check("small READ throughput (MOPS)", f"{rt[small]:.2f}", "~4.2")
    fig.check("latency ratio 8KB/16B (write)",
              f"{wl[-1] / wl[small]:.1f}x", "steep rise past 2KB (~4-5x)")
    return fig
