"""Extension 3 — tail behaviour under degraded hardware (beyond the paper).

The paper's cluster is homogeneous; real deployments see slow ports
(link training, PCIe throttling).  This extension degrades ONE port in
the 8-executor shuffle by increasing factors and reports completion-time
stretch for two designs:

* the paper's synchronous batched shuffle (every executor must finish);
* the same shuffle with the straggler's traffic rerouted through its
  machine's healthy second port (a NUMA-aware-style mitigation).

Expected shape: completion time tracks the slowest port linearly for the
baseline; rerouting flattens the curve at a small constant penalty.
"""

from __future__ import annotations

from repro import build
from repro.apps.shuffle import DistributedShuffle, ShuffleConfig
from repro.bench.report import FigureResult
from repro.bench.runner import bench_seed
from repro.hw import FaultInjector

__all__ = ["points", "run_point", "assemble"]

FACTORS = [1, 2, 4, 8, 16]


def _run_shuffle(slow_factor: float, reroute: bool, quick: bool) -> float:
    sim, cluster, ctx = build(machines=8)
    entries = 300 if quick else 1000
    shuffle = DistributedShuffle(
        ctx, 8, ShuffleConfig(strategy="sgl", batch_size=8, numa=reroute,
                              move_data=False),
        entries_per_executor=entries, seed=bench_seed(11))
    if slow_factor > 1:
        injector = FaultInjector(sim)
        victim = shuffle.executors[3]
        # numa=True places executor 3 (machine 3, socket 0) on port 0 and
        # would place a socket-1 executor on port 1; the mitigation is to
        # run the victim's traffic through the healthy port by treating it
        # as a socket-1 executor.
        injector.slow_port(ctx.cluster[victim.machine].port(0), slow_factor)
        if reroute:
            victim.socket = 1
            for qp in victim.qps.values():
                qp.local_port = ctx.cluster[victim.machine].port(1)
    return shuffle.run().elapsed_ns


def points(quick: bool = True) -> list:
    return [{"reroute": reroute, "factor": f}
            for reroute in (False, True) for f in FACTORS]


def run_point(point: dict, quick: bool = True) -> float:
    return _run_shuffle(point["factor"], reroute=point["reroute"],
                        quick=quick)


def assemble(values: list, quick: bool = True) -> FigureResult:
    fig = FigureResult(
        name="Ext 3", title="Shuffle completion vs one degraded port "
                            "— extension",
        x_label="Slowdown factor of one port", x_values=FACTORS,
        y_label="Completion time (normalized to healthy)")
    base = list(values[:len(FACTORS)])
    mitigated = list(values[len(FACTORS):])
    fig.add("baseline (stuck behind straggler)",
            [t / base[0] for t in base])
    fig.add("rerouted to healthy port",
            [t / mitigated[0] for t in mitigated])
    fig.check("baseline stretch at 16x",
              f"{base[-1] / base[0]:.1f}x", "tracks the slow port")
    fig.check("mitigated stretch at 16x",
              f"{mitigated[-1] / mitigated[0]:.1f}x",
              "much flatter (residual: inbound lanes still cross the "
              "slow port)")
    return fig
