"""Fig 6 — sequential vs random remote access (and the local baseline).

Panels:
(a) RDMA READ, four src x dst pattern combinations, 2 GB registered window;
(b) RDMA WRITE, same;
(c) local DRAM read/write, seq vs rand;
(d) 32 B writes, rand-rand..seq-seq over registered sizes 4 KB..4 GB.

Paper anchors: seq-seq write is >2x the random patterns on a large window;
below 4 MB (the RNIC SRAM's translation coverage) the difference vanishes
(<1%); the remote asymmetry is much smaller than the local 4-8x.
"""

from __future__ import annotations

from repro.bench.report import FigureResult
from repro.bench.runner import bench_seed, fresh_rig
from repro.core.access import RemoteAccessRunner
from repro.hw import HardwareParams
from repro.hw.dram import AccessPattern, DramModel
from repro.hw.numa import NumaTopology
from repro.sim import make_rng
from repro.verbs import Opcode

__all__ = ["points", "run_point", "assemble"]

SIZES_FULL = [1, 4, 16, 64, 256, 1024, 4096, 8192]
SIZES_QUICK = [16, 256, 4096]
PATTERNS = [("rand", "rand"), ("rand", "seq"), ("seq", "rand"),
            ("seq", "seq")]
#: 2 GB in the paper; scaled to 256 MB here (both >> the 4 MB SRAM
#: coverage, so the miss behaviour is identical) to keep allocation cheap.
WINDOW_BYTES = 256 << 20
REG_SIZES_FULL = ["4K", "4M", "16M", "64M", "256M", "1G"]
REG_SIZES_QUICK = ["4K", "4M", "64M", "256M"]
_REG_BYTES = {"4K": 4 << 10, "4M": 4 << 20, "16M": 16 << 20,
              "64M": 64 << 20, "256M": 256 << 20, "1G": 1 << 30}


def _remote_mops(opcode, payload, src, dst, window=WINDOW_BYTES,
                 n_ops=1000, warmup=1500) -> float:
    sim, ctx, lmr, rmr, qp, w = fresh_rig(mr_bytes=window)
    runner = RemoteAccessRunner(
        w, qp, lmr, rmr, opcode, payload_bytes=payload,
        src_pattern=src, dst_pattern=dst, rng=make_rng(bench_seed(11)))
    return sim.run(until=sim.process(runner.run(n_ops, warmup=warmup)))


def _local_dram() -> DramModel:
    p = HardwareParams()
    return DramModel(p, NumaTopology(p))


# ------------------------------------------------------- point contract
def points(quick: bool = True) -> list:
    sizes = SIZES_QUICK if quick else SIZES_FULL
    labels = REG_SIZES_QUICK if quick else REG_SIZES_FULL
    pts = []
    for op in ("read", "write"):  # panels (a) then (b)
        for src, dst in PATTERNS:
            pts.extend({"panel": op, "src": src, "dst": dst, "size": s}
                       for s in sizes)
    for op in ("write", "read"):  # panel (c), series order of run_local
        for pattern in ("seq", "rand"):
            pts.extend({"panel": "local", "op": op, "pattern": pattern,
                        "size": s} for s in sizes)
    pts.append({"panel": "local-asym", "op": "write"})
    pts.append({"panel": "local-asym", "op": "read"})
    for src, dst in PATTERNS:  # panel (d)
        pts.extend({"panel": "sizes", "src": src, "dst": dst, "reg": lab}
                   for lab in labels)
    return pts


def run_point(point: dict, quick: bool = True) -> float:
    panel = point["panel"]
    if panel in ("read", "write"):
        n_ops = 700 if quick else 2000
        opcode = Opcode.READ if panel == "read" else Opcode.WRITE
        return _remote_mops(opcode, point["size"], point["src"],
                            point["dst"], n_ops=n_ops)
    if panel == "local":
        dram = _local_dram()
        cost = dram.write_ns if point["op"] == "write" else dram.read_ns
        pattern = (AccessPattern.SEQUENTIAL if point["pattern"] == "seq"
                   else AccessPattern.RANDOM)
        return 1000.0 / cost(point["size"], pattern)
    if panel == "local-asym":
        # The paper's headline asymmetries are quoted at 64 B / 8 B ops.
        dram = _local_dram()
        if point["op"] == "write":
            return (dram.write_ns(64, AccessPattern.RANDOM)
                    / dram.write_ns(64, AccessPattern.SEQUENTIAL))
        return (dram.read_ns(8, AccessPattern.RANDOM)
                / dram.read_ns(8, AccessPattern.SEQUENTIAL))
    # panel (d): warm long enough to amortize compulsory misses on small
    # windows; big windows never stop missing, which is the point.
    n_ops = 800 if quick else 2000
    window = _REG_BYTES[point["reg"]]
    pages = max(1, window // 4096)
    warm = min(6000, max(1200, 3 * pages))
    return _remote_mops(Opcode.WRITE, 32, point["src"], point["dst"],
                        window=window, n_ops=n_ops, warmup=warm)


def _assemble_remote(values: list, quick: bool, op: str) -> FigureResult:
    sizes = SIZES_QUICK if quick else SIZES_FULL
    fig = FigureResult(
        name=f"Fig 6{'b' if op == 'write' else 'a'}",
        title=f"RDMA {op.upper()}: sequential vs random (large window)",
        x_label="Size (Bytes)", x_values=sizes,
        y_label="Throughput (MOPS)")
    it = iter(values)
    for src, dst in PATTERNS:
        fig.add(f"{op}-{src}-{dst}", [next(it) for _ in sizes])
    seq = fig.get(f"{op}-seq-seq").values
    rand = fig.get(f"{op}-rand-rand").values
    i = 0
    fig.check(f"seq-seq / rand-rand ({op}, small payload)",
              f"{seq[i] / rand[i]:.2f}x", ">2x (write); smaller than local 4-8x")
    return fig


def _assemble_local(values: list, quick: bool) -> FigureResult:
    sizes = SIZES_QUICK if quick else SIZES_FULL
    fig = FigureResult(
        name="Fig 6c", title="Local DRAM read/write, seq vs rand",
        x_label="Size (Bytes)", x_values=sizes,
        y_label="Throughput (MOPS)")
    it = iter(values)
    for op in ("write", "read"):
        for pattern in ("seq", "rand"):
            fig.add(f"{op}-{pattern}", [next(it) for _ in sizes])
    w64 = next(it)
    r8 = next(it)
    fig.check("local write seq/rand (64 B)", f"{w64:.2f}x", "~2.92x")
    fig.check("local read seq/rand (8 B)", f"{r8:.2f}x", "4-8x")
    return fig


def _assemble_sizes(values: list, quick: bool) -> FigureResult:
    labels = REG_SIZES_QUICK if quick else REG_SIZES_FULL
    fig = FigureResult(
        name="Fig 6d", title="Registered-size sweep (32 B writes)",
        x_label="Total Memory Size", x_values=labels,
        y_label="Throughput (MOPS)")
    it = iter(values)
    for src, dst in PATTERNS:
        fig.add(f"{src}-{dst}", [next(it) for _ in labels])
    seq = fig.get("seq-seq").values
    rand = fig.get("rand-rand").values
    small_i = labels.index("4K")
    big_i = len(labels) - 1
    fig.check("rand == seq below 4MB coverage",
              f"{abs(1 - rand[small_i] / seq[small_i]):.1%} gap", "<1%")
    fig.check("gap opens past 4MB",
              f"{seq[big_i] / rand[big_i]:.2f}x at {labels[big_i]}", ">2x")
    return fig


def assemble(values: list, quick: bool = True) -> list:
    """All four panels, in points() order: [6a, 6b, 6c, 6d]."""
    sizes = SIZES_QUICK if quick else SIZES_FULL
    labels = REG_SIZES_QUICK if quick else REG_SIZES_FULL
    n_remote = len(PATTERNS) * len(sizes)
    n_local = 4 * len(sizes) + 2
    a, rest = values[:n_remote], values[n_remote:]
    b, rest = rest[:n_remote], rest[n_remote:]
    c, d = rest[:n_local], rest[n_local:]
    assert len(d) == len(PATTERNS) * len(labels)
    return [_assemble_remote(a, quick, "read"),
            _assemble_remote(b, quick, "write"),
            _assemble_local(c, quick),
            _assemble_sizes(d, quick)]
