"""Shared measurement loop for the vector-IO benches (Figs 3-5, 18)."""

from __future__ import annotations

from typing import Generator, Optional

from repro import build
from repro.core.batching import BatchEntry, make_batcher
from repro.hw import HardwareParams
from repro.sim.stats import mops
from repro.verbs import Worker
from repro.verbs.cq import reap

__all__ = ["batched_throughput", "local_vector_mops"]


def batched_throughput(strategy: str, batch_size: int, payload: int,
                       n_batches: int = 250, depth: int = 4,
                       threads: int = 1,
                       params: Optional[HardwareParams] = None) -> dict:
    """Aggregate entry-MOPS of `threads` clients batching to one server.

    One-to-one topology per the paper's Fig 3 setup (all clients on one
    machine, one port each side, ``depth`` batches in flight per client).
    Returns {"mops", "per_thread", "cpu_ns_per_entry"}.
    """
    sim, cluster, ctx = build(machines=2, params=params)
    clients = []
    for t in range(threads):
        src = ctx.register(0, max(1 << 16, batch_size * payload * 4), socket=0)
        staging = ctx.register(0, max(4096, batch_size * payload), socket=0)
        dst = ctx.register(1, max(1 << 16, batch_size * payload * depth * 4),
                           socket=0)
        qp = ctx.create_qp(0, 1)
        w = Worker(ctx, 0, socket=0, name=f"t{t}")
        batcher = make_batcher(strategy, w, qp, staging_mr=staging,
                               move_data=False)
        clients.append((w, batcher, src, dst))
    done_entries = [0] * threads
    t_state = {"start": None}
    warmup = max(10, n_batches // 10)

    def client(idx: int) -> Generator:
        w, batcher, src, dst = clients[idx]
        entries = [BatchEntry(src, (i * payload) % (src.size - payload),
                              payload) for i in range(batch_size)]
        inflight = []
        completed = 0
        # Measurement-loop fast path: Worker.wait is inlined (same events,
        # same CPU accounting, same CQE reap) so the reap loop costs no
        # extra generator frame per completion.
        poll = w._poll_ns
        cqes = w._cqes
        for b in range(n_batches + warmup):
            if len(inflight) >= depth:
                events = inflight.pop(0)
                for ev in events:
                    reap(cqes, (yield ev))
                    w.cpu_busy_ns += poll
                    yield poll
                    w.ops += 1
                completed += 1
                if completed == warmup and t_state["start"] is None:
                    t_state["start"] = sim.now
                elif completed > warmup:
                    done_entries[idx] += batch_size
            dst_off = (b * batch_size * payload) % (dst.size
                                                    - batch_size * payload)
            events = yield from batcher.post(entries, dst, dst_off)
            inflight.append(events)
        for events in inflight:
            for ev in events:
                reap(cqes, (yield ev))
                w.cpu_busy_ns += poll
                yield poll
                w.ops += 1
            completed += 1
            if completed == warmup and t_state["start"] is None:
                t_state["start"] = sim.now
            elif completed > warmup:
                done_entries[idx] += batch_size

    procs = [sim.process(client(i)) for i in range(threads)]
    for p in procs:
        sim.run(until=p)
    elapsed = sim.now - (t_state["start"] or 0.0)
    total_entries = sum(done_entries)
    total_cpu = sum(w.cpu_busy_ns for w, *_ in clients)
    all_entries = (n_batches + warmup) * batch_size * threads
    return {
        "mops": mops(total_entries, elapsed),
        "per_thread": mops(total_entries, elapsed) / threads,
        "cpu_ns_per_entry": total_cpu / all_entries,
    }


def local_vector_mops(kind: str, batch_size: int, payload: int,
                      params: Optional[HardwareParams] = None) -> float:
    """Entry-MOPS of batched local memory access via readv/writev."""
    p = params or HardwareParams()
    from repro.hw.dram import DramModel
    from repro.hw.numa import NumaTopology
    dram = DramModel(p, NumaTopology(p))
    sizes = [payload] * batch_size
    ns = dram.writev_ns(sizes) if kind == "write" else dram.readv_ns(sizes)
    return batch_size * 1000.0 / ns
