"""repro — reproduction of *Thinking More about RDMA Memory Semantics*
(Ma et al., IEEE CLUSTER 2021).

The package layers, bottom-up:

* :mod:`repro.sim` — discrete-event simulation kernel;
* :mod:`repro.hw` — calibrated hardware models (RNIC, PCIe, NUMA, DRAM);
* :mod:`repro.verbs` / :mod:`repro.memory` — ibverbs-style API over them;
* :mod:`repro.core` — the paper's five memory-semantic optimizations as a
  reusable library (vector IO, IO consolidation, NUMA-aware placement,
  remote atomics, access-pattern tooling, plus an executable advisor);
* :mod:`repro.apps` — the four case studies (disaggregated hashtable,
  distributed shuffle, distributed join, distributed log);
* :mod:`repro.workloads` — Zipf/YCSB-like generators;
* :mod:`repro.bench` — regenerates every table and figure of the paper.

Quick start::

    from repro import build

    sim, cluster, ctx = build(machines=2)
"""

from __future__ import annotations

from repro.hw import Cluster, HardwareParams
from repro.sim import Simulator
from repro.verbs import RdmaContext

__version__ = "1.0.0"

__all__ = ["build", "Cluster", "HardwareParams", "RdmaContext", "Simulator",
           "__version__"]


def build(machines: int | None = None,
          params: HardwareParams | None = None,
          topology="single",
          ) -> tuple[Simulator, Cluster, RdmaContext]:
    """Construct a fresh (simulator, cluster, RDMA context) triple.

    ``topology`` selects the fabric (``"single"`` | ``"leaf-spine"`` or a
    :class:`repro.hw.fabric.Fabric` instance); the default is the paper's
    single switch.
    """
    sim = Simulator()
    cluster = Cluster(sim, params, machines=machines, topology=topology)
    return sim, cluster, RdmaContext(cluster)
