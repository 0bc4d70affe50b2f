"""NUMA-aware connection placement and the proxy-socket design (III-D, IV-B).

Two tools:

* :class:`ConnectionMesh` — build the QP mesh between machines either
  ``matched`` (each socket pairs only with the same remote socket:
  ``s x 2m`` QPs) or ``all_to_all`` (``s x s x 2m`` QPs, the baseline that
  pressures the RNIC's QP cache).
* :class:`ProxySocketRouter` — the paper's proxy-socket mechanism: a
  request for memory behind a *different* remote socket is handed through
  a shared-memory message queue to the local socket matched with it, which
  owns the affine QP; results come back the same way.  This avoids both
  the QP explosion of all-to-all meshes and remote inter-socket traffic.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim import Channel, Event, Interrupt
from repro.verbs import (
    Completion,
    MemoryRegion,
    QueuePair,
    RdmaContext,
    Worker,
)

__all__ = ["ConnectionMesh", "ProxySocketRouter"]


class ConnectionMesh:
    """QP meshes between one local machine and a set of remote machines."""

    def __init__(self, ctx: RdmaContext, local: int, remotes: list[int],
                 style: str = "matched"):
        if style not in ("matched", "all_to_all"):
            raise ValueError(f"unknown mesh style: {style!r}")
        self.ctx = ctx
        self.local = local
        self.style = style
        self.qps: dict[tuple[int, int, int], QueuePair] = {}
        sockets = ctx.params.sockets_per_machine
        for rm in remotes:
            for ls in range(sockets):
                if style == "matched":
                    self.qps[(rm, ls, ls)] = ctx.create_qp(
                        local, rm, local_port=self._port(ls),
                        remote_port=self._port(ls), sq_socket=ls)
                else:
                    for rs in range(sockets):
                        self.qps[(rm, ls, rs)] = ctx.create_qp(
                            local, rm, local_port=self._port(ls),
                            remote_port=self._port(rs), sq_socket=ls)

    def _port(self, socket: int) -> int:
        return self.ctx.cluster[self.local].port_for_socket(socket).index

    @property
    def qp_count(self) -> int:
        return len(self.qps)

    def qp(self, remote: int, local_socket: int,
           remote_socket: Optional[int] = None) -> QueuePair:
        """The QP to use from ``local_socket`` toward a remote socket.

        In a matched mesh, requests for an unmatched remote socket have no
        direct QP — callers must route via :class:`ProxySocketRouter`.
        """
        rs = local_socket if remote_socket is None else remote_socket
        key = (remote, local_socket, rs)
        if key not in self.qps:
            raise KeyError(
                f"no QP for {key}; matched meshes only connect equal "
                "sockets (use the proxy router)")
        return self.qps[key]


class ProxySocketRouter:
    """Routes cross-socket remote accesses through the matched local socket.

    One proxy loop runs pinned to each socket of the machine; the loops own
    the matched QPs.  A client on socket *a* accessing remote memory behind
    socket *b* != *a* pushes a request into socket *b*'s shared-memory
    queue ("one for pushing requests and the other for pulling results")
    and blocks on a per-request event.
    """

    def __init__(self, ctx: RdmaContext, machine: int,
                 mesh: ConnectionMesh):
        if mesh.style != "matched":
            raise ValueError("the proxy router requires a matched mesh")
        self.ctx = ctx
        self.sim = ctx.sim
        self.machine = machine
        self.mesh = mesh
        self.params = ctx.params
        sockets = ctx.params.sockets_per_machine
        self._request_queues = [
            Channel(self.sim, latency_ns=ctx.params.proxy_ipc_ns,
                    name=f"proxy.m{machine}.s{s}.req")
            for s in range(sockets)
        ]
        self._proxies = [Worker(ctx, machine, socket=s,
                                name=f"proxy.m{machine}.s{s}")
                         for s in range(sockets)]
        self._loops = []
        self.proxied = 0
        self.direct = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._loops:
            return
        for s, worker in enumerate(self._proxies):
            self._loops.append(self.sim.process(
                self._proxy_loop(s, worker), name=f"proxy.s{s}"))

    def stop(self) -> None:
        for loop in self._loops:
            loop.interrupt("stop")
        self._loops = []

    def _proxy_loop(self, socket: int, worker: Worker) -> Generator:
        queue = self._request_queues[socket]
        try:
            while True:
                request = yield queue.recv()
                op, args, reply = request
                qp = self.mesh.qp(args["remote"], socket)
                if op == "write":
                    comp = yield from worker.write(
                        qp,
                        src=args["local_mr"].slice(args["local_offset"],
                                                   args["length"]),
                        dst=args["remote_mr"].slice(args["remote_offset"],
                                                    args["length"]),
                        move_data=args["move_data"])
                elif op == "read":
                    comp = yield from worker.read(
                        qp,
                        src=args["remote_mr"].slice(args["remote_offset"],
                                                    args["length"]),
                        dst=args["local_mr"].slice(args["local_offset"],
                                                   args["length"]),
                        move_data=args["move_data"])
                elif op == "faa":
                    comp = yield from worker.faa(
                        qp, args["remote_mr"], args["remote_offset"],
                        args["add"])
                elif op == "cas":
                    comp = yield from worker.cas(
                        qp, args["remote_mr"], args["remote_offset"],
                        args["compare"], args["swap"])
                else:  # pragma: no cover - guarded by issue()
                    raise ValueError(f"unknown proxied op {op!r}")
                # Result returns through the shared-memory response queue.
                self.sim.timeout(self.params.proxy_ipc_ns).add_callback(
                    lambda _e, c=comp, r=reply: r.succeed(c))
        except Interrupt:
            return

    # -- client API --------------------------------------------------------------
    def _issue(self, worker: Worker, remote: int, remote_socket: int,
               op: str, args: dict) -> Generator:
        args["remote"] = remote
        if worker.socket == remote_socket:
            # Socket-affine: issue directly on the matched QP.
            self.direct += 1
            qp = self.mesh.qp(remote, worker.socket)
            method = getattr(worker, op)
            if op in ("write", "read"):
                local = args["local_mr"].slice(args["local_offset"],
                                               args["length"])
                rem = args["remote_mr"].slice(args["remote_offset"],
                                              args["length"])
                src, dst = ((local, rem) if op == "write" else (rem, local))
                comp = yield from method(qp, src=src, dst=dst,
                                         move_data=args["move_data"])
            elif op == "faa":
                comp = yield from method(qp, args["remote_mr"],
                                         args["remote_offset"], args["add"])
            else:
                comp = yield from method(qp, args["remote_mr"],
                                         args["remote_offset"],
                                         args["compare"], args["swap"])
            return comp
        # Cross-socket: hand off to the proxy socket.
        self.proxied += 1
        reply: Event = Event(self.sim)
        self._request_queues[remote_socket].send((op, args, reply))
        comp: Completion = yield reply
        return comp

    def write(self, worker: Worker, remote: int, local_mr: MemoryRegion,
              local_offset: int, remote_mr: MemoryRegion, remote_offset: int,
              length: int, move_data: bool = True) -> Generator:
        return (yield from self._issue(
            worker, remote, remote_mr.socket, "write",
            dict(local_mr=local_mr, local_offset=local_offset,
                 remote_mr=remote_mr, remote_offset=remote_offset,
                 length=length, move_data=move_data)))

    def read(self, worker: Worker, remote: int, local_mr: MemoryRegion,
             local_offset: int, remote_mr: MemoryRegion, remote_offset: int,
             length: int, move_data: bool = True) -> Generator:
        return (yield from self._issue(
            worker, remote, remote_mr.socket, "read",
            dict(local_mr=local_mr, local_offset=local_offset,
                 remote_mr=remote_mr, remote_offset=remote_offset,
                 length=length, move_data=move_data)))

    def faa(self, worker: Worker, remote: int, remote_mr: MemoryRegion,
            remote_offset: int, add: int) -> Generator:
        return (yield from self._issue(
            worker, remote, remote_mr.socket, "faa",
            dict(remote_mr=remote_mr, remote_offset=remote_offset, add=add)))

    def cas(self, worker: Worker, remote: int, remote_mr: MemoryRegion,
            remote_offset: int, compare: int, swap: int) -> Generator:
        return (yield from self._issue(
            worker, remote, remote_mr.socket, "cas",
            dict(remote_mr=remote_mr, remote_offset=remote_offset,
                 compare=compare, swap=swap)))
