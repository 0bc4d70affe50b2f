"""RNIC model: ports, execution units, link serialization, metadata SRAM.

A ConnectX-3-class RNIC has (per port) a requester pipeline that fetches
WQEs over PCIe, translates addresses via the on-chip SRAM cache, and
serializes packets onto the 40 Gbps link; and a responder pipeline that
handles inbound ops and DMA-writes payloads to host memory.  Atomics
additionally serialize on a responder-side atomic unit, which is why the
paper measures only 2.2-2.5 MOPS per port for CAS/FAA.

Packet throttling (Section II-B1) falls out of the requester occupancy
``max(t_exec(op), wire_time(payload))``: below ~1 KB the execution unit is
the bottleneck (flat latency/throughput); beyond, the link is.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.fabric import DcqcnLimiter, Fabric
from repro.hw.numa import NumaTopology
from repro.hw.params import HardwareParams
from repro.hw.pcie import PcieLink
from repro.hw.sram import MetadataCache
from repro.sim import Resource, Simulator

__all__ = ["Rnic", "RnicPort"]


class RnicPort:
    """One RNIC port, affiliated with one NUMA socket.

    Exposes the three contended pipelines (requester/tx, responder/rx,
    atomic) plus its PCIe path.  The verbs layer composes these into full
    operations.
    """

    def __init__(self, sim: Simulator, rnic: "Rnic", index: int, socket: int):
        self.sim = sim
        self.rnic = rnic
        self.index = index
        self.socket = socket
        name = f"{rnic.name}.p{index}"
        self.tx_unit = Resource(sim, name=f"{name}.tx")
        self.rx_unit = Resource(sim, name=f"{name}.rx")
        self.atomic_unit = Resource(sim, name=f"{name}.atomic")
        self.pcie = PcieLink(sim, rnic.params, rnic.topology, socket,
                             name=f"{name}.pcie")
        self.tx_ops = 0
        self.rx_ops = 0
        # Hot-path alias: params are frozen.
        self._params = rnic.params
        # Fault-injection hooks (see repro.hw.faults): multiplicative
        # slowdown and additive jitter applied to every occupancy.
        self.slowdown = 1.0
        self.jitter_rng = None
        self.jitter_max_ns = 0.0
        # Loss-fault hooks: probabilistic packet drop and link state.  The
        # RC transport (repro.verbs.express) consults packet_lost() once per
        # transmission attempt; all-default state never draws from an rng,
        # so the sunny path stays bit-identical with faults compiled in.
        self.loss_prob = 0.0
        self.loss_rng = None
        self.link_up = True
        self.packets_dropped = 0
        # DCQCN rate limiter (repro.hw.fabric.dcqcn): fed by ECN marks
        # from queued fabrics, consulted by the RC transport before each
        # tx attempt.  None when disabled — the sunny path never branches
        # into pacing code, keeping single-switch schedules bit-identical.
        self.dcqcn: Optional[DcqcnLimiter] = (
            DcqcnLimiter(rnic.params) if rnic.params.dcqcn_enabled else None)

    def _perturb(self, hold: float) -> float:
        if self.slowdown != 1.0:
            hold *= self.slowdown
        if self.jitter_rng is not None and self.jitter_max_ns > 0:
            hold += float(self.jitter_rng.uniform(0, self.jitter_max_ns))
        return hold

    @property
    def lossy(self) -> bool:
        """True when this port can currently drop traffic."""
        return not self.link_up or self.loss_prob > 0.0

    def packet_lost(self) -> bool:
        """Sample one transmission attempt through this port.

        A downed link loses everything; otherwise each attempt is an
        independent Bernoulli draw at ``loss_prob``.  Never touches the
        rng when no loss fault is active.
        """
        if not self.link_up:
            self.packets_dropped += 1
            return True
        if self.loss_prob > 0.0 and self.loss_rng is not None:
            if float(self.loss_rng.random()) < self.loss_prob:
                self.packets_dropped += 1
                return True
        return False

    # -- requester side ----------------------------------------------------
    def tx_occupancy_ns(self, exec_ns: float, payload_bytes: int,
                        n_sge: int = 1, extra_ns: float = 0.0) -> float:
        """Execution-unit hold time for one outbound WQE.

        ``max(processing, serialization)``: the unit is released when the
        last byte leaves, or when processing finishes — whichever is later.
        Extra scatter/gather elements each cost a descriptor walk.
        """
        p = self._params
        if n_sge == 1:
            processing = exec_ns + extra_ns
        else:
            if n_sge < 1:
                raise ValueError(f"n_sge must be >= 1, got {n_sge}")
            if n_sge > p.max_sge:
                raise ValueError(
                    f"n_sge {n_sge} exceeds hardware max {p.max_sge}")
            processing = exec_ns + (n_sge - 1) * p.sge_overhead_ns + extra_ns
        return max(processing, p.wire_time(payload_bytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RnicPort {self.rnic.name}.p{self.index} socket={self.socket}>"


class Rnic:
    """One RNIC: ``ports_per_rnic`` ports sharing one metadata SRAM.

    Port *i* is affiliated with socket ``i % sockets`` (Section II-B4:
    "each port/RNIC is bound to one of the sockets").
    """

    def __init__(self, sim: Simulator, params: HardwareParams,
                 topology: NumaTopology, fabric: Fabric, name: str = "",
                 machine_id: int = 0):
        self.sim = sim
        self.params = params
        self.topology = topology
        self.fabric = fabric
        #: Global machine id — the fabric resolves routes by the machine a
        #: port belongs to (``port.rnic.machine_id``).
        self.machine_id = machine_id
        self.name = name or "rnic"
        self.translation_cache = MetadataCache(
            params.translation_cache_entries,
            params.sram_miss_penalty_ns,
            name=f"{self.name}.xlt",
        )
        #: ``translate(mr, offset, length)``: the translation lookups of
        #: one access, returning the accumulated SRAM-miss penalty in ns
        #: (Section II-B2).  The translation cache itself, whose call is
        #: its page-span lookup (:meth:`MetadataCache.lookup_span`).
        self.translate = self.translation_cache
        #: QP-state lookups (``qp_cache.lookup(qp_id)``); they thrash
        #: with many connections.
        self.qp_cache = MetadataCache(
            params.qp_cache_entries,
            params.qp_miss_penalty_ns,
            name=f"{self.name}.qpc",
        )
        self.ports = [
            RnicPort(sim, self, i, i % topology.n_sockets)
            for i in range(params.ports_per_rnic)
        ]
        # Atomic ops to the SAME target word serialize across the whole
        # device (the RNIC's internal read-modify-write lock), even when
        # they arrive on different ports — this is why a single remote
        # sequencer word plateaus at ~2.4 MOPS no matter how it is reached.
        # Keyed by ``mr.key_base | offset``; a lock stays for the whole
        # run, since an 8-byte WRITE serializes only on a word some atomic
        # has targeted.  All of them share one name string.
        self._atomic_locks: dict[int, Resource] = {}
        self._atomic_lock_name = f"{self.name}.atomic"
        #: QPs currently attached to this device (either endpoint).  QP
        #: contexts and translation entries share the metadata SRAM, so
        #: beyond ``qp_cache_entries`` every extra live QP displaces
        #: ``qp_translation_footprint`` translation entries — the paper's
        #: QP-explosion effect (Section III-D), made first-class so the
        #: tenancy layer's connection cap has something real to protect.
        self.live_qps = 0

    # -- connection-state SRAM pressure -------------------------------------
    def qp_attached(self) -> None:
        """Account one more live QP; repartitions the metadata SRAM."""
        self.live_qps += 1
        self._apply_qp_pressure()

    def qp_detached(self) -> None:
        """Account one fewer live QP (connection teardown/eviction)."""
        if self.live_qps <= 0:
            raise ValueError(f"{self.name}: qp_detached with no live QPs")
        self.live_qps -= 1
        self._apply_qp_pressure()

    def _apply_qp_pressure(self) -> None:
        p = self.params
        overflow = max(0, self.live_qps - p.qp_cache_entries)
        effective = max(p.translation_cache_min_entries,
                        p.translation_cache_entries
                        - overflow * p.qp_translation_footprint)
        if effective != self.translation_cache.capacity:
            self.translation_cache.set_capacity(effective)

    def atomic_word_lock(self, key: int) -> Resource:
        """Per-target-word serialization point for CAS/FAA
        (``key = mr.key_base | offset``)."""
        lock = self._atomic_locks.get(key)
        if lock is None:
            lock = self._atomic_locks[key] = Resource(
                self.sim, name=self._atomic_lock_name)
        return lock

    def port_for_socket(self, socket: int) -> RnicPort:
        """The port affiliated with ``socket`` (or the nearest one)."""
        best: Optional[RnicPort] = None
        best_hops = None
        for port in self.ports:
            h = self.topology.hops(port.socket, socket)
            if best is None or h < best_hops:  # type: ignore[operator]
                best, best_hops = port, h
        assert best is not None
        return best
