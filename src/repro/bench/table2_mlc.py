"""Table II — local vs remote socket DRAM latency/bandwidth (Intel MLC).

Paper anchors: 92 ns / 3.70 GB/s local socket; 162 ns / 2.27 GB/s remote
socket (the remote access is 43%/63% worse in latency/bandwidth... i.e.
+76% latency, -39% bandwidth as printed in the table).
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.hw import HardwareParams
from repro.hw.dram import DramModel
from repro.hw.numa import NumaTopology

__all__ = ["points", "run_point", "assemble"]


def points(quick: bool = True) -> list:
    return [{"mem_socket": 0}, {"mem_socket": 1}]


def run_point(point: dict, quick: bool = True) -> list:
    p = HardwareParams()
    dram = DramModel(p, NumaTopology(p))
    lat, bw = dram.mlc_probe(0, point["mem_socket"])
    return [lat, bw]


def assemble(values: list, quick: bool = True) -> FigureResult:
    (local_lat, local_bw), (remote_lat, remote_bw) = values
    fig = FigureResult(
        name="Table II", title="Local vs remote socket DRAM (MLC probe)",
        x_label="Type", x_values=["local socket", "remote socket"],
        y_label="Latency (ns) / Bandwidth (GB/s)")
    fig.add("Latency (ns)", [local_lat, remote_lat])
    fig.add("Bandwidth (GB/s)", [local_bw, remote_bw])
    fig.check("local socket", f"{local_lat:.0f} ns / {local_bw:.2f} GB/s",
              "92 ns / 3.70 GB/s")
    fig.check("remote socket", f"{remote_lat:.0f} ns / {remote_bw:.2f} GB/s",
              "162 ns / 2.27 GB/s")
    return fig
