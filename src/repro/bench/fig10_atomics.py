"""Fig 10 — local vs remote vs RPC atomics: spinlock and sequencer.

Paper anchors:
(a) spinlock — remote is 1.54-2.80x the RPC lock; local collapses to 1.2%
    of its solo throughput by 14 threads while remote only falls to 14%;
    with exponential backoff the remote lock is ~2.32x local and ~3.63x
    RPC at 14 threads.
(b) sequencer — remote FAA plateaus ~2.4-2.6 MOPS (1.87-2.25x the RPC
    sequencer); the local FAA counter is orders of magnitude faster.
"""

from __future__ import annotations

from repro import build
from repro.bench.report import FigureResult
from repro.bench.runner import bench_seed
from repro.core.locks import (
    BackoffPolicy,
    LocalSpinLock,
    RemoteSpinLock,
    RpcSpinLock,
)
from repro.core.sequencer import LocalSequencer, RemoteSequencer, RpcSequencer
from repro.sim import make_rng
from repro.sim.stats import mops
from repro.verbs import Worker

__all__ = ["points", "run_point", "assemble"]

THREADS_FULL = [1, 2, 4, 6, 8, 10, 12, 14]
THREADS_QUICK = [1, 4, 8, 14]

#: Measurement window (ns) per configuration.
WINDOW_QUICK = 400_000
WINDOW_FULL = 1_500_000


def _run_window(sim, clients, window_ns):
    """Drive closed-loop clients for a fixed window; returns total cycles."""
    deadline = sim.now + window_ns
    count = [0]

    def wrap(cycle_gen_factory):
        while sim.now < deadline:
            yield from cycle_gen_factory()
            count[0] += 1

    procs = [sim.process(wrap(c)) for c in clients]
    for p in procs:
        sim.run(until=p)
    return count[0]


def _local_lock_mops(n_threads, window_ns) -> float:
    sim, cluster, ctx = build(machines=1)
    lock = LocalSpinLock(sim)
    clients = []
    for i in range(n_threads):
        w = Worker(ctx, 0, name=f"t{i}")

        def cycle(w=w):
            yield from lock.acquire(w)
            yield from lock.release(w)

        clients.append(cycle)
    total = _run_window(sim, clients, window_ns)
    return mops(total, window_ns)


def _remote_lock_mops(n_threads, window_ns, backoff=None) -> float:
    sim, cluster, ctx = build(machines=8)
    lock_mr = ctx.register(0, 4096)
    clients = []
    for i in range(n_threads):
        m = 1 + i % 7
        w = Worker(ctx, m, socket=i % 2, name=f"c{i}")
        qp = ctx.create_qp(m, 0, local_port=i % 2, remote_port=i % 2)
        scratch = ctx.register(m, 4096, socket=i % 2)
        lk = RemoteSpinLock(w, qp, scratch, lock_mr, backoff=backoff,
                            rng=make_rng(bench_seed(100 + i)))

        def cycle(lk=lk):
            yield from lk.acquire()
            yield from lk.release()

        clients.append(cycle)
    total = _run_window(sim, clients, window_ns)
    return mops(total, window_ns)


def _rpc_lock_mops(n_threads, window_ns) -> float:
    sim, cluster, ctx = build(machines=8)
    server = RpcSpinLock.make_server(ctx, machine=0)
    clients = []
    for i in range(n_threads):
        m = 1 + i % 7
        w = Worker(ctx, m, name=f"c{i}")
        lk = RpcSpinLock(server.connect(m), w)

        def cycle(lk=lk):
            yield from lk.acquire()
            yield from lk.release()

        clients.append(cycle)
    total = _run_window(sim, clients, window_ns)
    server.stop()
    return mops(total, window_ns)


#: Series order of each panel, also the canonical point order.
_LOCK_KINDS = ("local", "remote", "rpc", "remote-backoff")
_SEQ_KINDS = ("local", "remote", "rpc")


def _lock_threads(quick: bool) -> list:
    return THREADS_QUICK if quick else THREADS_FULL


def _seq_threads(quick: bool) -> list:
    return THREADS_QUICK if quick else [1, 2, 4, 6, 8, 10, 12, 14, 16]


def points(quick: bool = True) -> list:
    pts = [{"panel": "lock", "kind": kind, "threads": t}
           for kind in _LOCK_KINDS for t in _lock_threads(quick)]
    pts.extend({"panel": "seq", "kind": kind, "threads": t}
               for kind in _SEQ_KINDS for t in _seq_threads(quick))
    return pts


def run_point(point: dict, quick: bool = True) -> float:
    window = WINDOW_QUICK if quick else WINDOW_FULL
    kind, t = point["kind"], point["threads"]
    if point["panel"] == "lock":
        if kind == "local":
            return _local_lock_mops(t, window)
        if kind == "remote":
            return _remote_lock_mops(t, window)
        if kind == "rpc":
            return _rpc_lock_mops(t, window)
        return _remote_lock_mops(t, window,
                                 BackoffPolicy(base_ns=1500, cap_ns=48_000))
    if kind == "local":
        return _local_seq_mops(t, window)
    if kind == "remote":
        return _remote_seq_mops(t, window)
    return _rpc_seq_mops(t, window)


def assemble(values: list, quick: bool = True) -> list:
    """Both panels, in points() order: [10a, 10b]."""
    n_lock = len(_LOCK_KINDS) * len(_lock_threads(quick))
    return [_assemble_lock(values[:n_lock], quick),
            _assemble_sequencer(values[n_lock:], quick)]


def _assemble_lock(values: list, quick: bool = True) -> FigureResult:
    threads = _lock_threads(quick)
    fig = FigureResult(
        name="Fig 10a", title="Spinlock: local / remote / RPC "
                              "(+ exponential backoff)",
        x_label="Thread Number", x_values=threads,
        y_label="Throughput (MOPS, lock+unlock cycles)")
    it = iter(values)
    for label in ("Local", "Remote", "RPC-based", "Remote+backoff"):
        fig.add(label, [next(it) for _ in threads])
    local = fig.get("Local").values
    remote = fig.get("Remote").values
    rpc = fig.get("RPC-based").values
    rb = fig.get("Remote+backoff").values
    hi = len(threads) - 1
    fig.check("remote/RPC ratio (low contention)",
              f"{remote[0] / rpc[0]:.2f}x", "1.54-2.80x")
    fig.check("local retains at max threads",
              f"{local[hi] / local[0]:.1%}", "~1.2%")
    fig.check("remote retains at max threads",
              f"{remote[hi] / remote[0]:.1%}", "~14%")
    fig.check("backoff remote vs local @14",
              f"{rb[hi] / local[hi]:.2f}x", "~2.32x")
    fig.check("backoff remote vs RPC @14",
              f"{rb[hi] / rpc[hi]:.2f}x", "~3.63x")
    return fig


def _local_seq_mops(n_threads, window_ns) -> float:
    sim, cluster, ctx = build(machines=1)
    seq = LocalSequencer(sim)
    clients = []
    for i in range(n_threads):
        w = Worker(ctx, 0, name=f"t{i}")
        seq.register()

        def cycle(w=w):
            yield from seq.next(w)

        clients.append(cycle)
    total = _run_window(sim, clients, window_ns)
    return mops(total, window_ns)


def _remote_seq_mops(n_threads, window_ns) -> float:
    sim, cluster, ctx = build(machines=8)
    counter = ctx.register(0, 4096)
    clients = []
    for i in range(n_threads):
        m = 1 + i % 7
        w = Worker(ctx, m, socket=i % 2, name=f"c{i}")
        qp = ctx.create_qp(m, 0, local_port=i % 2, remote_port=i % 2)
        seq = RemoteSequencer(w, qp, counter)

        def cycle(seq=seq):
            yield from seq.next()

        clients.append(cycle)
    total = _run_window(sim, clients, window_ns)
    return mops(total, window_ns)


def _rpc_seq_mops(n_threads, window_ns) -> float:
    sim, cluster, ctx = build(machines=8)
    server = RpcSequencer.make_server(ctx, machine=0)
    clients = []
    for i in range(n_threads):
        m = 1 + i % 7
        w = Worker(ctx, m, name=f"c{i}")
        seq = RpcSequencer(server.connect(m), w)

        def cycle(seq=seq):
            yield from seq.next()

        clients.append(cycle)
    total = _run_window(sim, clients, window_ns)
    server.stop()
    return mops(total, window_ns)


def _assemble_sequencer(values: list, quick: bool = True) -> FigureResult:
    threads = _seq_threads(quick)
    fig = FigureResult(
        name="Fig 10b", title="Sequencer: local / remote / RPC",
        x_label="Thread Number", x_values=threads,
        y_label="Throughput (MOPS)")
    it = iter(values)
    for label in ("Local Sequencer", "Remote Sequencer", "RPC Sequencer"):
        fig.add(label, [next(it) for _ in threads])
    remote = fig.get("Remote Sequencer").values
    rpc = fig.get("RPC Sequencer").values
    hi = len(threads) - 1
    fig.check("remote plateau (MOPS)", f"{remote[hi]:.2f}", "~2.6 (stable)")
    fig.check("remote / RPC at saturation",
              f"{remote[hi] / rpc[hi]:.2f}x", "1.87-2.25x")
    return fig
