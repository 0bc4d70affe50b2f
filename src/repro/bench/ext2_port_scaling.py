"""Extension 2 — multi-port scaling (beyond the paper).

Section II-B4 cites prior work in which throughput grows linearly with
the number of RNIC ports [Qian&Afsahi; Lu et al.].  This extension sweeps
``ports_per_rnic`` on a many-to-one inbound WRITE workload and checks
(1) near-linear aggregate scaling while ports are the bottleneck, and
(2) that same-word atomics do NOT scale with ports (the device-wide RMW
lock of Section III-E, validated in the ablation suite) — together the
two halves of the paper's multi-port story.
"""

from __future__ import annotations

from repro import build
from repro.bench.report import FigureResult
from repro.hw import HardwareParams
from repro.sim.stats import mops
from repro.verbs import Opcode, Sge, Worker, WorkRequest

__all__ = ["points", "run_point", "assemble"]

PORTS = [1, 2, 4]
CLIENTS = 12


def _inbound_write_mops(ports: int, quick: bool) -> float:
    params = HardwareParams().derive(
        ports_per_rnic=ports,
        sockets_per_machine=max(2, ports))  # one socket per port
    sim, cluster, ctx = build(machines=8, params=params)
    target = [ctx.register(0, 1 << 20, socket=s % params.sockets_per_machine)
              for s in range(ports)]
    n_ops = 250 if quick else 800
    done = [0]

    def client(i):
        m = 1 + i % 7
        port = i % ports
        socket = port % params.sockets_per_machine
        w = Worker(ctx, m, socket=socket)
        qp = ctx.create_qp(m, 0, local_port=socket, remote_port=port)
        lmr = ctx.register(m, 1 << 16, socket=socket)
        rmr = target[port]
        inflight = []
        for k in range(n_ops):
            if len(inflight) >= 4:
                yield from w.wait(inflight.pop(0))
                done[0] += 1
            ev = yield from w.post(qp, WorkRequest(
                Opcode.WRITE, sgl=[Sge(lmr, 0, 64)], remote_mr=rmr,
                remote_offset=(k % 128) * 64, move_data=False))
            inflight.append(ev)
        for ev in inflight:
            yield from w.wait(ev)
            done[0] += 1

    procs = [sim.process(client(i)) for i in range(CLIENTS)]
    for p in procs:
        sim.run(until=p)
    return mops(done[0], sim.now)


def _same_word_atomic_mops(ports: int, quick: bool) -> float:
    params = HardwareParams().derive(
        ports_per_rnic=ports, sockets_per_machine=max(2, ports))
    sim, cluster, ctx = build(machines=8, params=params)
    counter = ctx.register(0, 4096, socket=0)
    n_ops = 120 if quick else 400
    done = [0]

    def client(i):
        m = 1 + i % 7
        port = i % ports
        socket = port % params.sockets_per_machine
        w = Worker(ctx, m, socket=socket)
        qp = ctx.create_qp(m, 0, local_port=socket, remote_port=port)
        for _ in range(n_ops):
            yield from w.faa(qp, counter, 0, add=1)
            done[0] += 1

    procs = [sim.process(client(i)) for i in range(CLIENTS)]
    for p in procs:
        sim.run(until=p)
    return mops(done[0], sim.now)


def points(quick: bool = True) -> list:
    return [{"probe": probe, "ports": p}
            for probe in ("write", "atomic") for p in PORTS]


def run_point(point: dict, quick: bool = True) -> float:
    if point["probe"] == "write":
        return _inbound_write_mops(point["ports"], quick)
    return _same_word_atomic_mops(point["ports"], quick)


def assemble(values: list, quick: bool = True) -> FigureResult:
    fig = FigureResult(
        name="Ext 2", title="Multi-port scaling (inbound writes vs "
                            "same-word atomics) — extension",
        x_label="RNIC Ports", x_values=PORTS,
        y_label="Throughput (MOPS)")
    writes = list(values[:len(PORTS)])
    atomics = list(values[len(PORTS):])
    fig.add("inbound 64 B writes", writes)
    fig.add("same-word FAA", atomics)
    fig.check("write scaling 1 -> 4 ports", f"{writes[-1] / writes[0]:.1f}x",
              "near-linear (cited prior work)")
    fig.check("atomic scaling 1 -> 4 ports",
              f"{atomics[-1] / atomics[0]:.1f}x",
              "~1x (device-wide word serialization)")
    return fig
