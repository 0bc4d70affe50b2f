"""Extension 5 — replication & recovery (scenario III made general).

The paper's third remote-memory usage class promises that "the recovery
time will be short with fast migration processing" but never measures
it.  This extension does, with :class:`repro.core.RemoteMirror`:

* incremental sync cost vs dirty fraction (block-granular coalescing);
* full recovery ("migration") throughput vs read chunk size — it should
  approach the 40 Gbps wire at large chunks.
"""

from __future__ import annotations

from repro import build
from repro.bench.report import FigureResult
from repro.bench.runner import bench_seed
from repro.core import RemoteMirror, Replica
from repro.sim import make_rng
from repro.verbs import Worker

__all__ = ["points", "run_point", "assemble"]

REGION_MB = 8
DIRTY_FRACTIONS = [0.01, 0.05, 0.25, 1.0]
CHUNKS_KB = [4, 16, 64, 256]


def _mirror_rig():
    sim, cluster, ctx = build(machines=3)
    size = REGION_MB << 20
    local = ctx.register(0, size, socket=0)
    replicas = [Replica(ctx.register(m, size, socket=0),
                        ctx.create_qp(0, m)) for m in (1, 2)]
    w = Worker(ctx, 0)
    mirror = RemoteMirror(w, local, replicas, block_bytes=4096,
                          move_data=False)
    return sim, mirror


def _sync_ms(dirty_fraction: float) -> float:
    sim, mirror = _mirror_rig()
    rng = make_rng(bench_seed(17))
    n_dirty = max(1, int(mirror.n_blocks * dirty_fraction))
    blocks = rng.choice(mirror.n_blocks, size=n_dirty, replace=False)

    def client():
        for b in sorted(int(x) for x in blocks):
            yield from mirror.write(b * 4096, b"x")   # 1-byte dirty marks
        t0 = sim.now
        yield from mirror.sync()
        return sim.now - t0

    return sim.run(until=sim.process(client())) / 1e6


def _recovery_gbps(chunk_kb: int) -> float:
    sim, mirror = _mirror_rig()

    def client():
        t0 = sim.now
        n = yield from mirror.recover(chunk_bytes=chunk_kb << 10)
        return n / (sim.now - t0)   # bytes per ns == GB/s

    return sim.run(until=sim.process(client()))


def points(quick: bool = True) -> list:
    pts = [{"probe": "sync", "fraction": f} for f in DIRTY_FRACTIONS]
    pts.extend({"probe": "recovery", "chunk_kb": c} for c in CHUNKS_KB)
    return pts


def run_point(point: dict, quick: bool = True) -> float:
    if point["probe"] == "sync":
        return _sync_ms(point["fraction"])
    return _recovery_gbps(point["chunk_kb"])


def assemble(values: list, quick: bool = True) -> FigureResult:
    fig = FigureResult(
        name="Ext 5", title=f"Replication sync + recovery "
                            f"({REGION_MB} MB region, 2 replicas) "
                            "— extension",
        x_label="dirty fraction / chunk KB",
        x_values=[str(f) for f in DIRTY_FRACTIONS],
        y_label="sync ms | recovery GB/s")
    sync = list(values[:len(DIRTY_FRACTIONS)])
    fig.add("incremental sync (ms)", sync)
    recov = list(values[len(DIRTY_FRACTIONS):])
    fig.add(f"recovery GB/s at chunk {CHUNKS_KB} KB", recov)
    fig.check("sync cost tracks dirty fraction",
              f"{sync[0]:.2f} -> {sync[-1]:.2f} ms",
              "roughly proportional")
    fig.check("recovery approaches wire speed at large chunks",
              f"{recov[-1]:.2f} GB/s", "-> ~4.2 GB/s effective of 5 B/ns "
              "raw (READ turnarounds amortized)")
    fig.check("full-region recovery time",
              f"{(REGION_MB << 20) / recov[-1] / 1e6:.1f} ms",
              "milliseconds, not seconds — the scenario III promise")
    return fig
