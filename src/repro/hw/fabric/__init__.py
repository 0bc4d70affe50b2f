"""repro.hw.fabric — multi-switch topologies with congestion.

See docs/FABRIC.md.  Public surface:

- :class:`Fabric` protocol (``path(src_port, dst_port, flow=) -> Route``)
- :class:`Route` (a pinned tuple of links; plain when empty)
- :class:`Link` (bounded egress queue: occupancy delay, ECN, tail drop)
- topology builders :class:`SingleSwitchFabric`, :class:`LeafSpineFabric`,
  :class:`ClosFabric` and the ``build_fabric(name, ...)`` resolver
- :class:`DcqcnLimiter`, the per-port AI/MD rate limiter ECN marks feed
"""

from .core import Fabric, Link, Route, ecmp_mix
from .dcqcn import DcqcnLimiter
from .topology import (TOPOLOGIES, ClosFabric, LeafSpineFabric,
                       SingleSwitchFabric, build_fabric)

__all__ = [
    "Fabric", "Link", "Route", "ecmp_mix",
    "DcqcnLimiter",
    "SingleSwitchFabric", "LeafSpineFabric", "ClosFabric",
    "build_fabric", "TOPOLOGIES",
]
