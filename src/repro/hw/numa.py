"""NUMA topology: sockets, QPI hops, and placement penalties (Section II-B4).

Each machine has ``sockets_per_machine`` sockets; memory is split evenly
and each RNIC port is affiliated with one socket.  A transaction (MMIO,
DMA, or a plain load) that crosses sockets pays QPI hop latency and sees
the lower remote-socket bandwidth (Table II).

The paper's end-to-end decomposition is
``T_RNIC->Socket + T_Socket->Memory + T_Network``; this module provides the
first two terms for any (component socket, memory socket) pair.
"""

from __future__ import annotations

from repro.hw.params import HardwareParams

__all__ = ["NumaTopology"]


class NumaTopology:
    """Socket topology of one machine.

    The dual-socket testbed has a single QPI link, so the hop count between
    distinct sockets is 1; the model generalizes to ring distance for more
    sockets (e.g. the four-socket machine of Fig 2).
    """

    def __init__(self, params: HardwareParams):
        self.params = params
        self.n_sockets = n = params.sockets_per_machine
        if n < 1:
            raise ValueError("need at least one socket")
        # Every pairwise cost below is a pure function of two socket ids
        # and the (frozen) params, so precompute them as n x n tables —
        # these sit on the per-WR hot path (translate/DMA/MMIO).  A new
        # topology is built whenever params change (HardwareParams is
        # immutable), so the tables can never go stale.
        self._hops = tuple(
            tuple(min(abs(a - b), n - abs(a - b)) for b in range(n))
            for a in range(n)
        )
        self._cross = tuple(
            tuple(h * params.qpi_hop_ns for h in row) for row in self._hops
        )
        self._mmio = tuple(
            tuple(params.mmio_ns + c for c in row) for row in self._cross
        )
        self._dram_lat = tuple(
            tuple(params.dram_local_latency_ns if h == 0
                  else params.dram_remote_latency_ns
                  + (h - 1) * params.qpi_hop_ns
                  for h in row)
            for row in self._hops
        )
        self._dram_bw = tuple(
            tuple(params.dram_local_bw_Bns if h == 0
                  else params.dram_remote_bw_Bns for h in row)
            for row in self._hops
        )

    def hops(self, socket_a: int, socket_b: int) -> int:
        """QPI hops between two sockets (ring distance)."""
        self._check(socket_a)
        self._check(socket_b)
        return self._hops[socket_a][socket_b]

    def _check(self, socket: int) -> None:
        if not 0 <= socket < self.n_sockets:
            raise ValueError(
                f"socket {socket} out of range 0..{self.n_sockets - 1}"
            )

    # -- penalties --------------------------------------------------------
    def cross_penalty(self, socket_a: int, socket_b: int) -> float:
        """Extra ns an MMIO/DMA transaction pays crossing from a to b."""
        self._check(socket_a)
        self._check(socket_b)
        return self._cross[socket_a][socket_b]

    def dram_latency(self, core_socket: int, mem_socket: int) -> float:
        """Load latency from a core to memory (Table II: 92 vs 162 ns).

        One hop pays the remote-socket latency; each extra hop beyond the
        first adds another QPI traversal (precomputed in ``_dram_lat``).
        """
        self._check(core_socket)
        self._check(mem_socket)
        return self._dram_lat[core_socket][mem_socket]

    def dram_bandwidth(self, core_socket: int, mem_socket: int) -> float:
        """Stream bandwidth, B/ns (Table II: 3.70 vs 2.27 GB/s)."""
        self._check(core_socket)
        self._check(mem_socket)
        return self._dram_bw[core_socket][mem_socket]

    def dma_time(self, device_socket: int, mem_socket: int, nbytes: int,
                 segments: int = 1) -> float:
        """DMA from a device on ``device_socket`` into memory on
        ``mem_socket``: PCIe transfer plus QPI crossing costs.

        Crossing sockets adds the hop latency *and* throttles the stream
        (``cross_dma_bw_factor``) — large cross-socket DMAs run at roughly
        half rate, which is what the NUMA-aware designs of Section IV avoid.
        Uncached: :class:`~repro.hw.pcie.PcieLink` memoizes per link.
        """
        if self.hops(device_socket, mem_socket) == 0:
            return self.params.pcie_time(nbytes, segments)
        base = self.params.pcie_time(nbytes, segments)
        stream = nbytes / self.params.pcie_bandwidth_Bns
        slowdown = stream * (1.0 / self.params.cross_dma_bw_factor - 1.0)
        return base + slowdown + self.cross_penalty(device_socket, mem_socket)
