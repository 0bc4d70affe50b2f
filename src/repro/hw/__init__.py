"""Hardware models for the RDMA-stack simulator.

Everything the paper's observations depend on is modeled explicitly:

* :mod:`repro.hw.params` — calibrated constants (one paper anchor each).
* :mod:`repro.hw.dram` — host DRAM + CPU-cache cost model (local baselines).
* :mod:`repro.hw.numa` — socket topology and QPI hop penalties.
* :mod:`repro.hw.pcie` — MMIO doorbells, DMA TLPs, scatter/gather DMA.
* :mod:`repro.hw.sram` — the RNIC's small on-device metadata cache (LRU).
* :mod:`repro.hw.rnic` — ports, execution units, link serialization.
* :mod:`repro.hw.fabric` — topologies (single / leaf-spine), link
  queues, ECN + DCQCN congestion control, ECMP routing.
* :mod:`repro.hw.machine` / :mod:`repro.hw.cluster` — composition.
"""

from repro.hw.params import HardwareParams, ServiceConfig, TenantSpec
from repro.hw.dram import DramModel, AccessPattern
from repro.hw.numa import NumaTopology
from repro.hw.pcie import PcieLink
from repro.hw.sram import MetadataCache
from repro.hw.fabric import (DcqcnLimiter, Fabric, LeafSpineFabric, Link,
                             Route, SingleSwitchFabric, build_fabric)
from repro.hw.rnic import Rnic, RnicPort
from repro.hw.machine import Machine
from repro.hw.cluster import Cluster
from repro.hw.faults import FaultInjector

__all__ = [
    "AccessPattern",
    "Cluster",
    "DcqcnLimiter",
    "DramModel",
    "Fabric",
    "FaultInjector",
    "HardwareParams",
    "LeafSpineFabric",
    "Link",
    "Machine",
    "MetadataCache",
    "NumaTopology",
    "PcieLink",
    "Rnic",
    "RnicPort",
    "Route",
    "ServiceConfig",
    "SingleSwitchFabric",
    "TenantSpec",
    "build_fabric",
]
