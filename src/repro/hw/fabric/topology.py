"""Topology builders: single switch and two-tier leaf/spine.

Latency convention: a link's ``latency_ns`` is its wire propagation plus
the pipeline latency of the *switch it arrives at*; host-facing downlinks
arrive at a NIC and carry wire latency only.  Hence a same-leaf route
costs ``2*wire + switch`` — exactly the classic single-switch crossbar
constant — and each extra tier adds ``2*wire + 2*switch``.

Bandwidth convention: host links run at ``link_bandwidth_Bns``.  Uplinks
are provisioned so that ``oversubscription = 1.0`` yields a non-blocking
fabric (uplink capacity per tier equals host capacity below it) and
larger values thin the uplinks by that factor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import Fabric, Link, Route, ecmp_mix

if TYPE_CHECKING:  # pragma: no cover
    from ..params import HardwareParams
    from ...sim.engine import Simulator

__all__ = ["SingleSwitchFabric", "LeafSpineFabric", "build_fabric",
           "TOPOLOGIES"]


class SingleSwitchFabric(Fabric):
    """The paper's testbed: every host one hop from every other through a
    fixed-latency, non-blocking crossbar (InfiniScale-IV).

    Bandwidth is enforced at the sending RNIC port (as before), so routes
    here are *plain*: no links, no queues, one bare delay of
    ``2*wire + switch`` per direction.  This is the default topology and
    is schedule-identical to the pre-fabric single-switch model.
    """

    kind = "single"

    def __init__(self, sim: "Simulator", params: "HardwareParams",
                 ports: int = 18, seed: int = 0) -> None:
        if ports < 2:
            raise ValueError(f"a switch needs >= 2 ports, got {ports}")
        super().__init__(sim, params, seed)
        self.ports = ports
        self._traverse_ns = (2 * params.wire_latency_ns
                             + params.switch_latency_ns)
        self._plain = Route(self, (), self._traverse_ns)

    def path(self, src_port, dst_port, flow: int = 0) -> Route:
        return self._plain

    def _select(self, src: int, dst: int, flow: int) -> tuple:
        return ()

    def _build(self, src: int, dst: int, via: tuple) -> Route:
        return self._plain

    def machine_at(self, rack: int, index: int) -> int:
        if rack != 0:
            raise IndexError("single-switch fabric has one rack (rack 0)")
        return index

    def describe(self) -> str:
        return (f"single-switch crossbar, {self.ports} ports, "
                f"{self._traverse_ns:.0f} ns/traverse")


class LeafSpineFabric(Fabric):
    """Two-tier leaf/spine: hosts attach to leaves in blocks, every leaf
    uplinks to every spine, ECMP picks the spine per flow."""

    kind = "leaf-spine"

    def __init__(self, sim: "Simulator", params: "HardwareParams",
                 machines: int, hosts_per_leaf: int = 4,
                 spines: int = 2, seed: int = 0) -> None:
        if machines < 1:
            raise ValueError("need at least one machine")
        if hosts_per_leaf < 1 or spines < 1:
            raise ValueError("hosts_per_leaf and spines must be >= 1")
        super().__init__(sim, params, seed)
        self.machines = machines
        self.hosts_per_leaf = hosts_per_leaf
        self.spines = spines
        self.leaves = -(-machines // hosts_per_leaf)
        wire = params.wire_latency_ns
        sw = params.switch_latency_ns
        host_bw = params.link_bandwidth_Bns
        # Non-blocking at oversubscription=1: each leaf's total uplink
        # capacity equals its total host-facing capacity.
        up_bw = (host_bw * hosts_per_leaf
                 / (spines * params.oversubscription))
        self.host_up = [
            Link(f"m{m}->leaf{m // hosts_per_leaf}", params,
                 host_bw, wire + sw)
            for m in range(machines)]
        self.host_down = [
            Link(f"leaf{m // hosts_per_leaf}->m{m}", params, host_bw, wire)
            for m in range(machines)]
        self.leaf_up = [
            [Link(f"leaf{l}->spine{s}", params, up_bw, wire + sw)
             for s in range(spines)]
            for l in range(self.leaves)]
        self.spine_down = [
            [Link(f"spine{s}->leaf{l}", params, up_bw, wire + sw)
             for l in range(self.leaves)]
            for s in range(spines)]

    def _select(self, src: int, dst: int, flow: int) -> tuple:
        if src // self.hosts_per_leaf == dst // self.hosts_per_leaf:
            return ()
        return (ecmp_mix(src, dst, flow, seed=self.seed) % self.spines,)

    def _build(self, src: int, dst: int, via: tuple) -> Route:
        if not via:
            links = (self.host_up[src], self.host_down[dst])
        else:
            spine = via[0]
            links = (self.host_up[src],
                     self.leaf_up[src // self.hosts_per_leaf][spine],
                     self.spine_down[spine][dst // self.hosts_per_leaf],
                     self.host_down[dst])
        return Route(self, links, src=src, dst=dst, via=via)

    @property
    def racks(self) -> int:
        return self.leaves

    def rack_of(self, machine_id: int) -> int:
        return machine_id // self.hosts_per_leaf

    def machine_at(self, rack: int, index: int) -> int:
        if not 0 <= rack < self.leaves:
            raise IndexError(f"rack {rack} out of range (0..{self.leaves - 1})")
        if not 0 <= index < self.hosts_per_leaf:
            raise IndexError(f"index {index} out of rack (0..{self.hosts_per_leaf - 1})")
        machine = rack * self.hosts_per_leaf + index
        if machine >= self.machines:
            raise IndexError(f"rack {rack} slot {index} is unpopulated")
        return machine

    def all_links(self) -> list[Link]:
        links = list(self.host_up) + list(self.host_down)
        for row in self.leaf_up:
            links.extend(row)
        for row in self.spine_down:
            links.extend(row)
        return links

    def describe(self) -> str:
        return (f"leaf-spine: {self.machines} hosts, {self.leaves} leaves x "
                f"{self.spines} spines, "
                f"{self.params.oversubscription:g}:1 oversubscription")


TOPOLOGIES = ("single", "leaf-spine")


def build_fabric(topology, sim: "Simulator", params: "HardwareParams",
                 machines: int) -> Fabric:
    """Resolve ``Cluster``'s ``topology=`` argument to a Fabric.

    Accepts a topology name from ``TOPOLOGIES`` or an already-built
    ``Fabric`` instance (for custom shapes: pass e.g.
    ``LeafSpineFabric(sim, params, n, hosts_per_leaf=8, spines=4)``).
    """
    if isinstance(topology, Fabric):
        return topology
    if topology == "single":
        return SingleSwitchFabric(sim, params, ports=max(18, machines * 2))
    if topology == "leaf-spine":
        return LeafSpineFabric(sim, params, machines)
    raise ValueError(
        f"unknown topology {topology!r}: expected one of {TOPOLOGIES} "
        "or a Fabric instance")
