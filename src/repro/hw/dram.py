"""Host DRAM + CPU-cache cost model.

Provides the *local* memory baselines the paper compares against:

* Fig 6(c): local sequential vs random read/write throughput — "once a row
  is read out, all the bits are available in the cache", so sequential
  access is far cheaper than random (2.92x for writes, 4-8x for reads).
* Fig 4's ``Local-W``/``Local-R``: batched local access via readv/writev.
* Table II: local vs remote-socket latency/bandwidth (the Intel MLC probe).
* The SP batcher's CPU-side gather (memcpy) cost.

These are cost *functions*, not DES resources: local memory operations in
the paper's benchmarks are single-threaded closed loops, so charging the
issuing thread directly is faithful and much cheaper to simulate.
"""

from __future__ import annotations

import enum

from repro.hw.numa import NumaTopology
from repro.hw.params import HardwareParams

__all__ = ["AccessPattern", "DramModel"]


class AccessPattern(str, enum.Enum):
    SEQUENTIAL = "seq"
    RANDOM = "rand"


class DramModel:
    """Per-operation local memory cost, parameterized by pattern and NUMA."""

    def __init__(self, params: HardwareParams, topology: NumaTopology):
        self.params = params
        self.topology = topology
        # These cost functions sit inside closed benchmark loops, so hoist
        # everything that is a pure function of the (frozen) params and
        # topology out of the per-op path.  HardwareParams is immutable: a
        # changed config builds a new model, so nothing here can go stale.
        self._write_base = {
            AccessPattern.SEQUENTIAL: params.local_seq_write_ns,
            AccessPattern.RANDOM: params.local_rand_write_ns,
        }
        self._read_base = {
            AccessPattern.SEQUENTIAL: params.local_seq_read_ns,
            AccessPattern.RANDOM: params.local_rand_read_ns,
        }
        n = topology.n_sockets
        # (bandwidth, random cross penalty, sequential cross penalty) per
        # (core socket, mem socket) pair.  Random access across sockets
        # pays the latency delta on every miss (the "inter-socket random
        # write is 6.85x slower" effect); sequential streams hide all but
        # a sliver of the hop cost behind prefetch.
        self._numa = tuple(
            tuple((topology.dram_bandwidth(a, b),
                   topology.dram_latency(a, b)
                   - params.dram_local_latency_ns
                   if topology.hops(a, b) else 0.0,
                   topology.hops(a, b) * params.qpi_hop_ns * 0.1
                   if topology.hops(a, b) else 0.0)
                  for b in range(n))
            for a in range(n)
        )
        self._memcpy_base = params.memcpy_base_ns
        self._writev_entry = params.local_writev_entry_ns
        self._readv_entry = params.local_readv_entry_ns
        self._cache_bw = params.cache_bw_Bns

    # -- single ops (Fig 6c) ------------------------------------------------
    def write_ns(self, nbytes: int, pattern: AccessPattern,
                 core_socket: int = 0, mem_socket: int = 0) -> float:
        """Cost of one store of ``nbytes`` under ``pattern``."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        return self._with_numa(self._write_base[pattern], nbytes,
                               core_socket, mem_socket,
                               random=pattern is AccessPattern.RANDOM)

    def read_ns(self, nbytes: int, pattern: AccessPattern,
                core_socket: int = 0, mem_socket: int = 0) -> float:
        """Cost of one load of ``nbytes`` under ``pattern``."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        return self._with_numa(self._read_base[pattern], nbytes,
                               core_socket, mem_socket,
                               random=pattern is AccessPattern.RANDOM)

    def _with_numa(self, base: float, nbytes: int, core_socket: int,
                   mem_socket: int, random: bool) -> float:
        if core_socket < 0 or mem_socket < 0:
            raise ValueError(f"socket out of range: "
                             f"({core_socket}, {mem_socket})")
        try:
            bw, rand_extra, seq_extra = self._numa[core_socket][mem_socket]
        except IndexError:
            raise ValueError(f"socket out of range: "
                             f"({core_socket}, {mem_socket})") from None
        cost = base + nbytes / bw
        extra = rand_extra if random else seq_extra
        if extra:
            cost += extra
        return cost

    # -- vector ops (Fig 4 Local-W / Local-R) --------------------------------
    def writev_ns(self, sizes: list[int]) -> float:
        """Batched local write of several buffers (writev model): one
        syscall-ish fixed cost plus a per-entry cost; small batched entries
        stream at cache bandwidth."""
        self._check_sizes(sizes)
        return (self._memcpy_base + self._writev_entry * len(sizes)
                + sum(sizes) / self._cache_bw)

    def readv_ns(self, sizes: list[int]) -> float:
        """Batched local read of several buffers (readv model)."""
        self._check_sizes(sizes)
        return (self._memcpy_base + self._readv_entry * len(sizes)
                + sum(sizes) / self._cache_bw)

    # -- memcpy (the SP batcher's gather phase) -------------------------------
    def memcpy_ns(self, nbytes: int, core_socket: int = 0,
                  src_socket: int = 0, dst_socket: int = 0) -> float:
        """One buffer copy by a core, with NUMA-aware bandwidth."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        if core_socket < 0 or src_socket < 0 or dst_socket < 0:
            raise ValueError(f"socket out of range: ({core_socket}, "
                             f"{src_socket}, {dst_socket})")
        try:
            row = self._numa[core_socket]
            bw = min(row[src_socket][0], row[dst_socket][0])
        except IndexError:
            raise ValueError(f"socket out of range: ({core_socket}, "
                             f"{src_socket}, {dst_socket})") from None
        return self._memcpy_base + nbytes / bw

    # -- Table II probe --------------------------------------------------------
    def mlc_probe(self, core_socket: int, mem_socket: int) -> tuple[float, float]:
        """(latency_ns, bandwidth_GBs) as Intel MLC would report them."""
        return (
            self.topology.dram_latency(core_socket, mem_socket),
            self.topology.dram_bandwidth(core_socket, mem_socket),
        )

    @staticmethod
    def _check_sizes(sizes: list[int]) -> None:
        if not sizes:
            raise ValueError("empty size list")
        if any(s < 0 for s in sizes):
            raise ValueError("negative size in list")
