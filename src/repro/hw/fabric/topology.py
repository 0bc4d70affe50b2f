"""Topology builders: single switch, two-tier leaf/spine, 3-stage Clos.

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

__all__ = ["SingleSwitchFabric", "LeafSpineFabric", "ClosFabric",
           "build_fabric", "TOPOLOGIES"]


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


class ClosFabric(Fabric):
    """3-stage Clos / folded fat-tree: edge -> aggregation -> core.

    Edges are grouped into pods of ``edges_per_pod``; every edge uplinks
    to every aggregation switch in its pod; each aggregation switch owns
    an equal share of the core switches (fat-tree style), so a core
    choice determines the aggregation switch on both sides.  ECMP hashes
    the flow over aggs (same-pod) or cores (cross-pod).
    """

    kind = "clos"

    def __init__(self, sim: "Simulator", params: "HardwareParams",
                 machines: int, hosts_per_edge: int = 4,
                 edges_per_pod: int = 2, aggs_per_pod: int = 2,
                 cores: int = 2, seed: int = 0) -> None:
        if machines < 1:
            raise ValueError("need at least one machine")
        if min(hosts_per_edge, edges_per_pod, aggs_per_pod, cores) < 1:
            raise ValueError("all Clos stage sizes must be >= 1")
        if cores % aggs_per_pod != 0:
            raise ValueError("cores must be a multiple of aggs_per_pod "
                             "(each agg owns an equal share of cores)")
        super().__init__(sim, params, seed)
        self.machines = machines
        self.hosts_per_edge = hosts_per_edge
        self.edges_per_pod = edges_per_pod
        self.aggs_per_pod = aggs_per_pod
        self.cores = cores
        self.edges = -(-machines // hosts_per_edge)
        self.pods = -(-self.edges // edges_per_pod)
        wire = params.wire_latency_ns
        sw = params.switch_latency_ns
        host_bw = params.link_bandwidth_Bns
        up_bw = (host_bw * hosts_per_edge
                 / (aggs_per_pod * params.oversubscription))
        self.host_up = [
            Link(f"m{m}->edge{m // hosts_per_edge}", params,
                 host_bw, wire + sw)
            for m in range(machines)]
        self.host_down = [
            Link(f"edge{m // hosts_per_edge}->m{m}", params, host_bw, wire)
            for m in range(machines)]
        # Keyed link tables: ("edge_up", edge, agg), ("agg_down", pod, agg,
        # edge), ("agg_up", pod, agg, core), ("core_down", core, pod).
        self._links: dict[tuple, Link] = {}
        cores_per_agg = cores // aggs_per_pod
        for e in range(self.edges):
            pod = e // edges_per_pod
            for a in range(aggs_per_pod):
                self._links[("edge_up", e, a)] = Link(
                    f"edge{e}->agg{pod}.{a}", params, up_bw, wire + sw)
                self._links[("agg_down", pod, a, e)] = Link(
                    f"agg{pod}.{a}->edge{e}", params, up_bw, wire + sw)
        for pod in range(self.pods):
            for c in range(cores):
                a = c // cores_per_agg
                self._links[("agg_up", pod, a, c)] = Link(
                    f"agg{pod}.{a}->core{c}", params, up_bw, wire + sw)
                self._links[("core_down", c, pod)] = Link(
                    f"core{c}->agg{pod}.{c // cores_per_agg}", params,
                    up_bw, wire + sw)

    def _edge_of(self, machine: int) -> int:
        return machine // self.hosts_per_edge

    def _select(self, src: int, dst: int, flow: int) -> tuple:
        se, de = self._edge_of(src), self._edge_of(dst)
        if se == de:
            return ()
        h = ecmp_mix(src, dst, flow, seed=self.seed)
        if se // self.edges_per_pod == de // self.edges_per_pod:
            return ("agg", h % self.aggs_per_pod)
        return ("core", h % self.cores)

    def _build(self, src: int, dst: int, via: tuple) -> Route:
        if not via:
            links = (self.host_up[src], self.host_down[dst])
            return Route(self, links, src=src, dst=dst, via=via)
        se, de = self._edge_of(src), self._edge_of(dst)
        sp, dp = se // self.edges_per_pod, de // self.edges_per_pod
        tbl = self._links
        if via[0] == "agg":
            a = via[1]
            links = (self.host_up[src],
                     tbl[("edge_up", se, a)],
                     tbl[("agg_down", sp, a, de)],
                     self.host_down[dst])
        else:
            c = via[1]
            a = c // (self.cores // self.aggs_per_pod)
            links = (self.host_up[src],
                     tbl[("edge_up", se, a)],
                     tbl[("agg_up", sp, a, c)],
                     tbl[("core_down", c, dp)],
                     tbl[("agg_down", dp, a, de)],
                     self.host_down[dst])
        return Route(self, links, src=src, dst=dst, via=via)

    @property
    def racks(self) -> int:
        return self.edges

    def rack_of(self, machine_id: int) -> int:
        return machine_id // self.hosts_per_edge

    def machine_at(self, rack: int, index: int) -> int:
        if not 0 <= rack < self.edges:
            raise IndexError(f"rack {rack} out of range (0..{self.edges - 1})")
        if not 0 <= index < self.hosts_per_edge:
            raise IndexError(
                f"index {index} out of rack (0..{self.hosts_per_edge - 1})")
        machine = rack * self.hosts_per_edge + index
        if machine >= self.machines:
            raise IndexError(f"rack {rack} slot {index} is unpopulated")
        return machine

    def all_links(self) -> list[Link]:
        return (list(self.host_up) + list(self.host_down)
                + list(self._links.values()))

    def describe(self) -> str:
        return (f"clos: {self.machines} hosts, {self.edges} edges, "
                f"{self.pods} pods, {self.cores} cores, "
                f"{self.params.oversubscription:g}:1 oversubscription")


TOPOLOGIES = ("single", "leaf-spine", "clos")


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
    if topology == "clos":
        return ClosFabric(sim, params, machines)
    raise ValueError(
        f"unknown topology {topology!r}: expected one of {TOPOLOGIES} "
        "or a Fabric instance")
