"""Two-sided (RPC) hashtable baseline.

The paper's premise (Section I, citing [55]) is that one-sided verbs beat
two-sided designs on throughput/latency AND free the remote CPU.  This
module provides the comparison point the paper argues against: the same
key-value service implemented Herd-style — front-ends SEND get/put
requests, back-end CPU threads process them against local memory and
reply.

Performance character: each back-end server thread sustains at most
``1/rpc_service_ns`` requests; the back-end burns one core per server
thread (the disaggregation cost the paper's design avoids); latency is a
full request-reply round trip.
"""

from __future__ import annotations

from typing import Generator

from repro.core.rpc import RpcServer
from repro.verbs import RdmaContext, Worker

__all__ = ["RpcHashTable", "RpcHashTableClient"]


class RpcHashTable:
    """Back-end: ``n_servers`` CPU threads over a shared in-memory dict."""

    def __init__(self, ctx: RdmaContext, machine: int, n_servers: int = 1,
                 value_size: int = 48):
        if n_servers < 1:
            raise ValueError("need at least one server thread")
        if n_servers > (ctx.params.cores_per_socket
                        * ctx.params.sockets_per_machine):
            raise ValueError("more server threads than cores")
        self.ctx = ctx
        self.machine = machine
        self.value_size = value_size
        self._data: dict[int, tuple[int, bytes]] = {}
        self._version = 0
        self.servers = [
            RpcServer(ctx, machine, socket=i % ctx.params.sockets_per_machine,
                      name=f"kvserver{i}.m{machine}")
            for i in range(n_servers)
        ]
        for server in self.servers:
            server.start(self._handler)
        self._rr = 0

    def _handler(self, body, request):
        op, key, value = body
        if op == "put":
            self._version += 1
            self._data[key] = (self._version, value)
            return ("ok", self._version)
        if op == "get":
            hit = self._data.get(key)
            return ("hit", hit) if hit is not None else ("miss", None)
        raise ValueError(f"unknown KV op: {op!r}")

    def connect(self, client_machine: int, client_socket: int = 0
                ) -> "RpcHashTableClient":
        """Round-robin clients over the server threads."""
        server = self.servers[self._rr % len(self.servers)]
        self._rr += 1
        channel = server.connect(client_machine, client_socket,
                                 client_port=client_socket,
                                 server_port=server.socket)
        return RpcHashTableClient(self, channel, client_machine,
                                  client_socket)

    def stop(self) -> None:
        for server in self.servers:
            server.stop()


class RpcHashTableClient:
    """Front-end handle: one outstanding request at a time."""

    def __init__(self, table: RpcHashTable, channel, machine: int,
                 socket: int):
        self.table = table
        self.channel = channel
        self.worker = Worker(table.ctx, machine, socket,
                             name=f"kvclient.m{machine}.s{socket}")
        self.ops = 0

    def put(self, key: int, value: bytes) -> Generator:
        """Returns the version assigned by the server."""
        if len(value) > self.table.value_size:
            raise ValueError(
                f"value of {len(value)} B exceeds {self.table.value_size} B")
        status, version = yield from self.channel.call(
            self.worker, ("put", key, value),
            request_bytes=64 + self.table.value_size)
        if status != "ok":  # pragma: no cover - protocol invariant
            raise RuntimeError(f"unexpected put reply: {status!r}")
        self.ops += 1
        return version

    def get(self, key: int) -> Generator:
        """Returns (version, value) or None."""
        status, payload = yield from self.channel.call(
            self.worker, ("get", key, None),
            request_bytes=64, reply_bytes=64 + self.table.value_size)
        self.ops += 1
        return payload if status == "hit" else None
