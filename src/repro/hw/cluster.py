"""Cluster composition: N machines on a fabric.

This is the root object a benchmark or application builds first::

    sim = Simulator()
    cluster = Cluster(sim, HardwareParams())
    ctx = RdmaContext(cluster)          # from repro.verbs

The default fabric is the paper's single switch, bit-identical to the
pre-fabric model.  Pass ``topology="leaf-spine"`` / ``"clos"`` for the
queued multi-switch topologies, or a pre-built
:class:`~repro.hw.fabric.Fabric` instance for custom shapes::

    cluster = Cluster(sim, params, machines=32, topology="leaf-spine")
    target = cluster.machine(rack=0, index=0)   # rack-aware placement
"""

from __future__ import annotations

from repro.hw.fabric import Fabric, build_fabric
from repro.hw.machine import Machine
from repro.hw.params import HardwareParams
from repro.sim import Simulator

__all__ = ["Cluster"]


class Cluster:
    """The eight-machine testbed (machine count and topology configurable)."""

    def __init__(self, sim: Simulator, params: HardwareParams | None = None,
                 machines: int | None = None,
                 topology: str | Fabric = "single"):
        self.sim = sim
        self.params = params or HardwareParams()
        self.params.validate()
        n = machines if machines is not None else self.params.machines
        if n < 1:
            raise ValueError("cluster needs at least one machine")
        self.fabric = build_fabric(topology, sim, self.params, n)
        self.machines = [Machine(sim, self.params, self.fabric, i)
                         for i in range(n)]

    # -- rack-aware placement ------------------------------------------------
    @property
    def racks(self) -> int:
        return self.fabric.racks

    def rack_of(self, machine_id: int) -> int:
        return self.fabric.rack_of(machine_id)

    def machine(self, rack: int | None = None, index: int = 0) -> Machine:
        """Address a machine by position: ``machine(index=i)`` is global,
        ``machine(rack=r, index=i)`` is the i-th host on rack r's leaf."""
        if rack is None:
            return self.machines[index]
        return self.machines[self.fabric.machine_at(rack, index)]

    def __len__(self) -> int:
        return len(self.machines)

    def __getitem__(self, i: int) -> Machine:
        return self.machines[i]

    def __iter__(self):
        return iter(self.machines)
