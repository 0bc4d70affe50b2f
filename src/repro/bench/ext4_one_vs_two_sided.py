"""Extension 4 — one-sided vs two-sided KV service (the paper's premise).

Section I (citing Wei et al. [55]): one-sided verbs give "higher
performance than two-sided RDMA in terms of both throughput and latency"
and free the remote CPU.  The paper never plots this; we measure it:

* throughput/latency of the one-sided disaggregated hashtable vs a
  Herd-style RPC hashtable with 1 and 4 back-end server threads;
* back-end CPU consumed per million operations (the disaggregation win).
"""

from __future__ import annotations

from repro import build
from repro.apps.hashtable import DisaggregatedHashTable, FrontEndConfig
from repro.apps.hashtable.rpc_baseline import RpcHashTable
from repro.bench.report import FigureResult
from repro.sim.stats import mops
from repro.workloads.ycsb import OpKind, YcsbWorkload

__all__ = ["points", "run_point", "assemble"]

FRONTENDS = [2, 6, 10, 14]


def _one_sided(n_fe: int, quick: bool) -> tuple[float, float]:
    """(MOPS, backend CPU us per measured window)."""
    sim, cluster, ctx = build(machines=8)
    table = DisaggregatedHashTable(ctx, n_fe, FrontEndConfig(numa="matched"),
                                   n_keys=4096, hot_fraction=0.125)
    measure_ns = 350_000 if quick else 900_000
    result = table.run_throughput(measure_ns=measure_ns, warmup_ns=90_000)
    return result.mops, 0.0  # no back-end CPU at all: one-sided


def _two_sided(n_fe: int, n_servers: int, quick: bool
               ) -> tuple[float, float]:
    sim, cluster, ctx = build(machines=8)
    table = RpcHashTable(ctx, machine=0, n_servers=n_servers)
    clients = [table.connect(1 + (i // 2) % 7, i % 2) for i in range(n_fe)]
    n_ops = 120 if quick else 400
    done = [0]
    t0 = sim.now

    def drive(client, seed):
        workload = YcsbWorkload(n_keys=4096, rng=None, write_ratio=1.0)
        for op in workload.ops(n_ops):
            if op.kind is OpKind.WRITE:
                yield from client.put(op.key, b"v")
            else:
                yield from client.get(op.key)
            done[0] += 1

    procs = [sim.process(drive(c, i)) for i, c in enumerate(clients)]
    for p in procs:
        sim.run(until=p)
    backend_cpu = sum(s.worker.cpu_busy_ns for s in table.servers)
    table.stop()
    return mops(done[0], sim.now - t0), backend_cpu / 1000.0


def points(quick: bool = True) -> list:
    pts = [{"kind": "one", "frontends": n} for n in FRONTENDS]
    pts.extend({"kind": "rpc", "servers": s, "frontends": n}
               for s in (1, 4) for n in FRONTENDS)
    return pts


def run_point(point: dict, quick: bool = True) -> list:
    if point["kind"] == "one":
        return list(_one_sided(point["frontends"], quick))
    return list(_two_sided(point["frontends"], point["servers"], quick))


def assemble(values: list, quick: bool = True) -> FigureResult:
    fig = FigureResult(
        name="Ext 4", title="One-sided vs two-sided KV service "
                            "(100% write, Zipf 0.99) — extension",
        x_label="Front-end Number", x_values=FRONTENDS,
        y_label="Throughput (MOPS) / back-end CPU (us)")
    k = len(FRONTENDS)
    one = values[:k]
    rpc1 = values[k:2 * k]
    rpc4 = values[2 * k:]
    fig.add("one-sided (NUMA-matched)", [m for m, _ in one])
    fig.add("RPC, 1 server thread", [m for m, _ in rpc1])
    fig.add("RPC, 4 server threads", [m for m, _ in rpc4])
    fig.add("RPC-4 backend CPU (us)", [c for _, c in rpc4])
    o = fig.get("one-sided (NUMA-matched)").values
    r1 = fig.get("RPC, 1 server thread").values
    r4 = fig.get("RPC, 4 server threads").values
    fig.check("one-sided over RPC-1 at max front-ends",
              f"{o[-1] / r1[-1]:.1f}x", ">1x (Section I premise)")
    fig.check("one-sided over RPC-4 at max front-ends",
              f"{o[-1] / r4[-1]:.1f}x", ">1x without burning any "
              "back-end core")
    fig.check("RPC-1 server-bound plateau (MOPS)", f"{max(r1):.2f}",
              "~1.1 (1/rpc_service_ns)")
    return fig
