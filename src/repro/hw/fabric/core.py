"""Fabric core: links with bounded queues, routes, and the Fabric protocol.

The paper's testbed is 8 machines on one InfiniScale-IV switch and
``SingleSwitchFabric`` models exactly that: a fixed-latency crossbar
with bandwidth enforced at the sending RNIC port.  Scaling past one switch
changes the physics — traffic shares *links*, links have finite buffers,
and full buffers drop or mark packets.  This module is the vocabulary
for that world:

``Link``
    One unidirectional cable plus the egress buffer feeding it.  A link
    is pure bookkeeping (no sim events of its own): it tracks the
    virtual time at which its serializer frees up, so the queue wait of
    an arriving packet is ``max(0, free_at - now)``.  Arrivals beyond
    the buffer are tail-dropped; arrivals above the ECN threshold are
    marked.

``Route``
    An ordered tuple of links from one host to another.  The verbs lane
    crosses it one hop per wake: each hop's ``Link.admit`` gives its
    latency + queue wait + serialization, its ECN mark and its drop.  A
    route with **no** links is a *plain* route — the single-switch fast
    path — crossed in one fixed delay equal to the classic crossbar
    constant, so default-topology schedules are bit-identical to the
    pre-fabric model.

``Fabric``
    The topology protocol: ``path(src_port, dst_port, flow=) -> Route``
    with deterministic ECMP (seeded hash over the source and destination
    machines and the flow id, i.e. the QP id), plus rack-aware
    addressing (``rack_of`` / ``machine_at``).

Determinism contract: nothing here draws randomness (ECMP is an FNV-1a
mix over integers; fault-injected loss uses an explicitly seeded rng
owned by the fault layer), and plain routes schedule the exact event
sequence of the single-switch model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..params import HardwareParams
    from ..rnic import RnicPort
    from ...sim.engine import Simulator

__all__ = ["Link", "Route", "Fabric", "ecmp_mix"]


def ecmp_mix(*values: int, seed: int = 0) -> int:
    """Deterministic 32-bit FNV-1a mix for ECMP path selection.

    Python's builtin ``hash`` is salted per process, which would make
    path choice (and therefore every digest) differ across runs; this
    mix is stable across processes and platforms.
    """
    h = (0x811C9DC5 ^ (seed & 0xFFFFFFFF)) or 0x811C9DC5
    for v in values:
        h ^= v & 0xFFFFFFFF
        h = (h * 0x01000193) & 0xFFFFFFFF
        h ^= (v >> 32) & 0xFFFFFFFF
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


class Link:
    """One unidirectional link: a wire plus the bounded egress buffer
    feeding it.

    ``latency_ns`` is the propagation delay of the hop *including* the
    pipeline latency of the switch the packet arrives at (host-facing
    final hops end at a NIC, so they carry wire latency only).  The
    buffer is sized in bytes (``queue_depth`` MTU packets + per-packet
    overhead); occupancy is tracked in time via ``_free_at`` and
    converted through the link's effective bandwidth.
    """

    __slots__ = (
        "name", "bandwidth_Bns", "latency_ns", "mtu_bytes",
        "overhead_bytes", "queue_bytes", "ecn_bytes",
        "_free_at", "up", "loss_prob", "loss_rng", "degrade_factor",
        "packets_in", "packets_out", "packets_dropped", "ecn_marks",
        "bytes_in", "bytes_out", "queue_peak_bytes",
    )

    def __init__(self, name: str, params: "HardwareParams",
                 bandwidth_Bns: float | None = None,
                 latency_ns: float | None = None) -> None:
        self.name = name
        self.bandwidth_Bns = (params.link_bandwidth_Bns
                              if bandwidth_Bns is None else bandwidth_Bns)
        self.latency_ns = (params.wire_latency_ns
                           if latency_ns is None else latency_ns)
        self.mtu_bytes = params.mtu_bytes
        self.overhead_bytes = params.packet_overhead_bytes
        self.queue_bytes = params.link_queue_depth * (
            params.mtu_bytes + params.packet_overhead_bytes)
        self.ecn_bytes = params.ecn_threshold * self.queue_bytes
        #: Virtual time at which the serializer drains the current backlog.
        self._free_at = 0.0
        # -- fault state (owned by hw.faults) --------------------------
        self.up = True
        self.loss_prob = 0.0
        self.loss_rng = None
        self.degrade_factor = 1.0     # fraction of bandwidth retained
        # -- counters ---------------------------------------------------
        self.packets_in = 0
        self.packets_out = 0
        self.packets_dropped = 0
        self.ecn_marks = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.queue_peak_bytes = 0.0

    def packets_of(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self.mtu_bytes))

    def wire_bytes(self, nbytes: int) -> int:
        return nbytes + self.packets_of(nbytes) * self.overhead_bytes

    def ser_ns(self, nbytes: int) -> float:
        """Serialization time at the link's current effective bandwidth."""
        return self.wire_bytes(nbytes) / (self.bandwidth_Bns
                                          * self.degrade_factor)

    def queue_ns(self, now: float) -> float:
        """Current queue wait an arrival at ``now`` would see."""
        wait = self._free_at - now
        return wait if wait > 0.0 else 0.0

    def admit(self, now: float, nbytes: int,
              droppable: bool = True) -> tuple[float, bool, bool, int]:
        """Admit one message at time ``now``; pure bookkeeping, no events.

        Returns ``(delay_ns, ecn_marked, dropped, packets)``; the caller
        (the verbs lane) reaches the hop's far end ``delay_ns`` later.
        ``droppable=False`` models the highest-priority VOQ used for
        ACKs: such messages pay the queue wait but are never tail-dropped
        (see docs/FABRIC.md for the rationale).  A down or lossy link
        still drops them.
        """
        packets = self.packets_of(nbytes)
        wire = nbytes + packets * self.overhead_bytes
        self.packets_in += packets
        self.bytes_in += wire
        if not self.up:
            self.packets_dropped += packets
            return (self.latency_ns, False, True, packets)
        if (self.loss_prob > 0.0 and self.loss_rng is not None
                and self.loss_rng.random() < self.loss_prob):
            self.packets_dropped += packets
            return (self.latency_ns, False, True, packets)
        rate = self.bandwidth_Bns * self.degrade_factor
        start = self._free_at if self._free_at > now else now
        backlog_bytes = (start - now) * rate
        if backlog_bytes > self.queue_peak_bytes:
            self.queue_peak_bytes = backlog_bytes
        if droppable and backlog_bytes + wire > self.queue_bytes:
            self.packets_dropped += packets
            return (self.latency_ns, False, True, packets)
        self._free_at = start + wire / rate
        marked = backlog_bytes >= self.ecn_bytes
        if marked:
            self.ecn_marks += packets
        self.packets_out += packets
        self.bytes_out += wire
        return ((start - now) + wire / rate + self.latency_ns,
                marked, False, packets)


class Route:
    """A pinned path between two hosts.

    ``links == ()`` marks a *plain* route (single-switch crossbar):
    crossed in one fixed delay of ``plain_ns``, it never drops or marks —
    schedule-identical to the pre-fabric model.
    """

    __slots__ = ("fabric", "links", "plain_ns", "src", "dst", "via")

    def __init__(self, fabric: "Fabric", links: tuple[Link, ...],
                 plain_ns: float = 0.0, src: int = -1, dst: int = -1,
                 via: tuple = ()) -> None:
        self.fabric = fabric
        self.links = links
        self.plain_ns = plain_ns
        self.src = src
        self.dst = dst
        self.via = via

    @property
    def hops(self) -> int:
        return len(self.links) if self.links else 1

    def base_ns(self) -> float:
        """Uncongested fixed one-way latency of this route (propagation +
        switch pipeline; excludes serialization and queueing)."""
        if not self.links:
            return self.plain_ns
        return sum(link.latency_ns for link in self.links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.links:
            return f"Route(plain, {self.plain_ns:.0f}ns)"
        path = " -> ".join(link.name for link in self.links)
        return f"Route({self.src}->{self.dst} via {path})"


class Fabric:
    """Topology protocol: route resolution + rack-aware addressing.

    Subclasses implement ``_select`` (ECMP choice among equal-cost
    paths, keyed by flow id) and ``_build`` (materialize the link tuple
    for a choice).  Routes are cached per ``(src, dst, via)`` so QPs
    sharing a path share ``Route`` objects — all state lives in the
    links.
    """

    kind = "abstract"

    def __init__(self, sim: "Simulator", params: "HardwareParams",
                 seed: int = 0) -> None:
        self.sim = sim
        self.params = params
        self.seed = seed
        self.drops = 0
        self._route_cache: dict = {}

    # -- routing --------------------------------------------------------
    def path(self, src_port: "RnicPort", dst_port: "RnicPort",
             flow: int = 0) -> Route:
        """The pinned route ``flow`` takes from ``src_port``'s host to
        ``dst_port``'s host.  Same (src, dst, flow) -> same Route."""
        src = src_port.rnic.machine_id
        dst = dst_port.rnic.machine_id
        via = self._select(src, dst, flow)
        key = (src, dst, via)
        route = self._route_cache.get(key)
        if route is None:
            route = self._route_cache[key] = self._build(src, dst, via)
        return route

    def _select(self, src: int, dst: int, flow: int) -> tuple:
        return ()

    def _build(self, src: int, dst: int, via: tuple) -> Route:
        raise NotImplementedError

    # -- placement -------------------------------------------------------
    @property
    def racks(self) -> int:
        return 1

    def rack_of(self, machine_id: int) -> int:
        return 0

    def machine_at(self, rack: int, index: int) -> int:
        """Global machine id of the ``index``-th host in ``rack``."""
        if rack != 0:
            raise IndexError(f"{self.kind} fabric has a single rack")
        return index

    # -- introspection ----------------------------------------------------
    def all_links(self) -> list[Link]:
        return []

    def describe(self) -> str:
        return f"{self.kind} fabric"
