"""PCIe link between a CPU socket and its RNIC (Section II-B3).

Each RDMA operation issues PCIe transaction-layer packets: the CPU rings a
doorbell with MMIO, the RNIC DMA-reads WQEs and payloads, and inbound data
is DMA-written to host memory.  PCIe supports scatter/gather DMA — one
logical transfer over multiple discontiguous buffers — which is exactly the
mechanism the SGL batching strategy rides on.

The link is a shared, contended resource: concurrent DMAs serialize.  MMIO
doorbells are posted writes and do not occupy the link in this model (their
cost is charged to the issuing CPU thread instead).
"""

from __future__ import annotations

from repro.hw.numa import NumaTopology
from repro.hw.params import HardwareParams
from repro.sim import Resource, Simulator

__all__ = ["PcieLink"]


class PcieLink:
    """The PCIe connection of one RNIC, attached to ``socket``."""

    def __init__(self, sim: Simulator, params: HardwareParams,
                 topology: NumaTopology, socket: int, name: str = ""):
        self.sim = sim
        self.params = params
        self.topology = topology
        self.socket = socket          # socket whose PCIe root complex owns us
        self.name = name or f"pcie@s{socket}"
        self._bus = Resource(sim, name=self.name)
        self.dma_bytes = 0
        self.dma_count = 0
        # The one memo of DMA transfer times, keyed (mem_socket, nbytes,
        # segments) — one dict probe on the per-WR hot path instead of a
        # call into the topology.  Params/topology are immutable, so
        # entries never go stale; bounded so adversarial size sweeps
        # cannot grow it unchecked.
        self._time_cache: dict = {}

    def dma_ns(self, nbytes: int, mem_socket: int, segments: int = 1) -> float:
        """Memoized transfer duration of one DMA to/from ``mem_socket``.

        Both the express lane and the stepped reference read it, so they
        see the very same float for a given transfer; bus occupancy is
        the caller's problem (the lane holds ``_bus`` for it).
        """
        key = (mem_socket, nbytes, segments)
        duration = self._time_cache.get(key)
        if duration is None:
            duration = self.topology.dma_time(
                self.socket, mem_socket, nbytes, segments)
            if len(self._time_cache) < 8192:
                self._time_cache[key] = duration
        return duration
