"""Sequencers: monotonically increasing counters (Section III-E, Fig 10b).

* :class:`LocalSequencer` — ``__sync_fetch_and_add`` model; total
  throughput saturates around ~100 MOPS under contention (one cache line).
* :class:`RemoteSequencer` — RDMA ``fetch_and_add`` on a remote word; the
  responder atomic unit caps it at the stable ~2.4 MOPS plateau.
* :class:`RpcSequencer` — the server increments a local counter per
  request; bounded by the server's service rate (~1.4 MOPS).

All three hand out *densely increasing, never repeating* values — the
property the distributed log's space reservation depends on.
"""

from __future__ import annotations

from typing import Generator

from repro.core.rpc import RpcChannel, RpcServer
from repro.sim import Simulator
from repro.verbs import MemoryRegion, QueuePair, RdmaContext, Worker

__all__ = ["LocalSequencer", "RemoteSequencer", "RpcSequencer"]


class LocalSequencer:
    """Shared-memory FAA counter with a contention cost model.

    Threads must :meth:`register` so the model knows how many cores bounce
    the counter's cache line.
    """

    def __init__(self, sim: Simulator, start: int = 0):
        self.sim = sim
        self.value = start
        self.threads = 0
        self.issued = 0

    def register(self) -> None:
        self.threads += 1

    def unregister(self) -> None:
        if self.threads <= 0:
            raise RuntimeError("unregister without register")
        self.threads -= 1

    def next(self, worker: Worker, n: int = 1) -> Generator:
        """Atomically reserve ``n`` consecutive values; returns the first."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        p = worker.params
        cost = p.local_faa_ns + max(0, self.threads - 1) * p.local_faa_contention_ns
        yield from worker.compute(cost)
        first = self.value
        self.value += n
        self.issued += 1
        check = self.sim.check
        if check is not None:
            check.on_sequence(self, first, n, worker.name)
        return first


class RemoteSequencer:
    """Client handle for a counter word in remote memory (RDMA FAA)."""

    def __init__(self, worker: Worker, qp: QueuePair,
                 counter_mr: MemoryRegion, counter_offset: int = 0):
        if counter_offset % 8:
            raise ValueError("counter word must be 8-byte aligned")
        self.worker = worker
        self.qp = qp
        self.counter_mr = counter_mr
        self.counter_offset = counter_offset
        self.issued = 0
        self.transport_errors = 0

    def next(self, n: int = 1) -> Generator:
        """Reserve ``n`` consecutive values with one FAA; returns the first.

        Multi-value reservation is the distributed log's consecutive-space
        reserve (Section IV-E): one round trip regardless of batch size.
        A transport failure is retried after ``RdmaContext.recover_qp`` —
        an errored completion carries no value, and returning it would
        hand the caller garbage instead of a reserved range.  The loss
        model drops requests before the responder executes them, so an
        errored FAA never consumed counter values and reissuing is safe.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        while True:
            comp = yield from self.worker.faa(
                self.qp, self.counter_mr, self.counter_offset, add=n)
            if comp.ok:
                break
            self.transport_errors += 1
            yield from self.worker.ctx.recover_qp(self.qp)
        self.issued += 1
        check = self.worker.sim.check
        if check is not None:
            check.on_sequence((self.counter_mr.mr_id, self.counter_offset),
                              comp.value, n, self.worker.name)
        return comp.value


class RpcSequencer:
    """Sequencer service over two-sided verbs."""

    def __init__(self, channel: RpcChannel, worker: Worker):
        self.channel = channel
        self.worker = worker
        self.issued = 0

    @staticmethod
    def make_server(ctx: RdmaContext, machine: int, socket: int = 0
                    ) -> RpcServer:
        server = RpcServer(ctx, machine, socket, name=f"seqserver.m{machine}")
        state = {"value": 0}

        def handler(body, request):
            n = int(body)
            if n < 1:
                raise ValueError(f"sequencer request for {n} values")
            first = state["value"]
            state["value"] += n
            check = ctx.sim.check
            if check is not None:
                check.on_sequence(("rpc-seq", server.name), first, n,
                                  request.reply_qp.qp_id)
            return first

        server.start(handler)
        return server

    def next(self, n: int = 1) -> Generator:
        first = yield from self.channel.call(self.worker, n)
        self.issued += 1
        return first
