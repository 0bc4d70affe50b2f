"""Latency decomposition — the paper's T_RNIC->Socket + T_Socket->Memory +
T_Network analysis (Section III-D), measured per stage with the tracer.

Prints the mean per-stage duration of WRITE/READ/CAS/FAA at 32 B and the
same WRITE at 4 KB, for both the all-affine and the all-alternate NUMA
placements — making visible exactly WHERE each placement penalty lands.
"""

from __future__ import annotations

from repro import build
from repro.bench.report import FigureResult
from repro.verbs import Opcode, OpTracer, Sge, Worker, WorkRequest
from repro.verbs.trace import STAGES

__all__ = ["points", "run_point", "assemble"]

#: The ops each placement reports, in series order.
OPS = {"affine": ("write", "read", "compare_and_swap", "fetch_and_add"),
       "alternate": ("write", "read")}


def _trace(placement: str, size: int = 32, n: int = 12) -> OpTracer:
    sim, cluster, ctx = build(machines=2)
    tracer = OpTracer()
    ctx.attach_tracer(tracer)
    if placement == "affine":
        core = mem = rmem = 0
    else:  # everything on the alternate socket of the (socket-0) ports
        core = mem = rmem = 1
    lmr = ctx.register(0, 1 << 20, socket=mem)
    rmr = ctx.register(1, 1 << 20, socket=rmem)
    qp = ctx.create_qp(0, 1, local_port=0, remote_port=0, sq_socket=core)
    w = Worker(ctx, 0, socket=core)

    def client():
        for _ in range(n):
            yield from w.write(qp, src=lmr[0:size], dst=rmr[0:size],
                               move_data=False)
            yield from w.read(qp, src=rmr[0:size], dst=lmr[0:size],
                              move_data=False)
            yield from w.cas(qp, rmr, 0, compare=0, swap=0)
            yield from w.faa(qp, rmr, 8, add=1)

    sim.run(until=sim.process(client()))
    return tracer


def points(quick: bool = True) -> list:
    return [{"placement": placement} for placement in OPS]


def run_point(point: dict, quick: bool = True) -> dict:
    """Each op's mean stage durations, then its mean latency (ns)."""
    placement = point["placement"]
    tracer = _trace(placement)
    return {op: [tracer.mean_stage_ns(op, s) for s in STAGES]
            + [tracer.mean_latency_ns(op)] for op in OPS[placement]}


def assemble(values: list, quick: bool = True) -> FigureResult:
    affine, alt = values
    fig = FigureResult(
        name="Breakdown", title="Per-stage latency decomposition "
                                "(32 B ops; affine vs alternate placement)",
        x_label="stage", x_values=STAGES + ["TOTAL"],
        y_label="mean ns")
    for op in OPS["affine"]:
        fig.add(f"{op} (affine)", affine[op])
    for op in OPS["alternate"]:
        fig.add(f"{op} (alternate)", alt[op])
    delta = alt["write"][-1] - affine["write"][-1]
    fig.check("alternate-placement write penalty", f"+{delta:.0f} ns",
              "QPI on MMIO + WQE fetch + responder DMA (Table III)")
    # Network share is placement-invariant.
    network = STAGES.index("network")
    fig.check("network share invariant",
              f"{alt['write'][network]:.0f} ns",
              f"{affine['write'][network]:.0f} ns")
    return fig
