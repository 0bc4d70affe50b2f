"""Calibrated hardware constants.

Every constant is anchored to a number the paper reports (or a public spec
of the testbed part).  The testbed: eight machines, dual-socket Intel Xeon
E5-2640 v2 (8 cores/socket, 2.0 GHz), 96 GB RAM, Mellanox ConnectX-3
dual-port 40 Gbps InfiniBand (MT27500), InfiniScale-IV switch.

Calibration targets (Section II-B / III):

=====================================  =======================================
Paper observation                       Constant(s) responsible
=====================================  =======================================
small WRITE latency 1.16 us            post/fetch/exec/wire/remote/ack chain
small READ latency 2.00 us             + read turnaround terms
small WRITE ~4.7 MOPS                  ``exec_write_ns`` ~ 212 ns
small READ ~4.2 MOPS                   ``exec_read_ns`` ~ 238 ns
latency rises from ~2 KB               ``link_bandwidth_Bns`` = 5 B/ns (40 Gb)
ATOMIC 2.2-2.5 MOPS/port               ``exec_atomic_ns`` ~ 420 ns
Fig 6d knee at 4 MB registered         1024-entry translation cache x 4 KB
seq/rand write gap ~2x                 ``sram_miss_penalty_ns`` ~ exec time
Table II 92/162 ns, 3.7/2.27 GB/s      DRAM + QPI constants
Table III worst/best ~55%/49%          ``qpi_hop_ns`` on MMIO and DMA paths
=====================================  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

__all__ = ["HardwareParams", "ServiceConfig", "TenantSpec"]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class HardwareParams:
    """All tunable constants of the hardware model.  Times in ns, sizes in
    bytes, bandwidths in bytes/ns (== GB/s)."""

    # ---- cluster shape (Section III setup) --------------------------------
    machines: int = 8
    sockets_per_machine: int = 2
    cores_per_socket: int = 8
    dram_per_socket: int = 48 * GB          # 96 GB split across two sockets
    ports_per_rnic: int = 2                 # ConnectX-3 dual-port

    # ---- link / switch -----------------------------------------------------
    #: 40 Gbps InfiniBand == 5 bytes per ns of raw link rate.
    link_bandwidth_Bns: float = 5.0
    #: One-way propagation (cables + PHY).
    wire_latency_ns: float = 60.0
    #: InfiniScale-IV per-hop switching latency.
    switch_latency_ns: float = 100.0
    #: Per-packet wire overhead (headers/CRC) added to payload bytes.
    packet_overhead_bytes: int = 30
    #: Path MTU: payloads larger than this are segmented into several packets.
    mtu_bytes: int = 4096

    # ---- RNIC execution ----------------------------------------------------
    #: Per-WQE execution-unit occupancy for WRITE.  1/212 ns = 4.7 MOPS,
    #: matching Fig 1's small-write throughput plateau.
    exec_write_ns: float = 212.0
    #: READ plateau is ~4.2 MOPS (Fig 1) -> 238 ns.
    exec_read_ns: float = 238.0
    #: RDMA CAS / FAA: ~2.2-2.5 MOPS per port (Section III-E discussion).
    exec_atomic_ns: float = 420.0
    #: Responder-side processing per inbound op (translation + DMA issue).
    #: 1/190 ns = 5.26 MOPS per-port inbound cap — just above the requester
    #: plateau (so Fig 1 stays requester-bound) but low enough that many-
    #: to-one workloads saturate the receiver, as in Fig 12/19.
    responder_ns: float = 190.0
    #: Fraction of a QPI hop that serializes in the responder pipeline when
    #: the inbound DMA targets the RNIC's alternate socket (the DMA write
    #: stalls on QPI credits).  Source of the ~14% NUMA-aware throughput
    #: gains in Fig 12/19.
    responder_cross_exposure: float = 1.0
    #: Extra responder latency for READ (host-memory fetch turnaround);
    #: pipelined in hardware, so it adds latency but not occupancy.
    #: Calibrated so small-READ latency lands on Fig 1's 2.00 us.
    read_turnaround_ns: float = 520.0
    #: Per-SGE gather overhead at the RNIC (SGL batching): each extra
    #: scatter/gather element costs one descriptor fetch + DMA setup.
    sge_overhead_ns: float = 40.0
    #: Max SGEs in one WR (ConnectX-3 supports 32).
    max_sge: int = 32

    # ---- RNIC metadata SRAM (Section II-B2) --------------------------------
    #: Page size of the address-translation table entries.
    translation_page_bytes: int = 4 * KB
    #: Entries cached on-chip.  1024 x 4 KB = 4 MB coverage, which is where
    #: Fig 6d shows the seq/rand gap opening.
    translation_cache_entries: int = 1024
    #: Fetching a translation entry from host DRAM over PCIe on a miss.
    sram_miss_penalty_ns: float = 215.0
    #: QP state entries cached on-chip; beyond this, QP thrash sets in
    #: (Section II-B2: file-system throughput -50% from 40 to 120 clients).
    qp_cache_entries: int = 256
    qp_miss_penalty_ns: float = 400.0
    #: Translation-cache entries displaced by every live QP beyond
    #: ``qp_cache_entries``: QP contexts and translation entries share the
    #: same on-device SRAM, so a QP explosion (Section III-D) steals
    #: translation coverage and the seq/rand knee moves left.
    qp_translation_footprint: int = 4
    #: Floor on the effective translation-cache size under QP pressure
    #: (the device always reserves a working set for the hot pages).
    translation_cache_min_entries: int = 64

    # ---- PCIe (Section II-B3) ----------------------------------------------
    #: PCIe 3.0 x8 effective data rate ~7.88 GB/s.
    pcie_bandwidth_Bns: float = 7.88
    #: Per-TLP DMA overhead (read request + completion round on the bus).
    pcie_tlp_ns: float = 80.0
    #: Marginal cost of each additional scatter/gather segment in one DMA:
    #: the requests pipeline, so it is cheaper than a standalone TLP.
    pcie_tlp_pipelined_ns: float = 30.0
    #: CPU-side MMIO doorbell write (posted, uncached).
    mmio_ns: float = 90.0
    #: WQE prep CPU cost per work request.
    cpu_wqe_prep_ns: float = 40.0
    #: CQE poll CPU cost.
    cpu_poll_ns: float = 40.0
    #: CQE delivery DMA (RNIC -> host CQ).
    cqe_dma_ns: float = 80.0
    #: Payloads at or below this are inlined into the WQE (no payload DMA).
    max_inline_bytes: int = 220

    # ---- NUMA / QPI (Section II-B4, Table II) ------------------------------
    #: One QPI hop, as seen by MMIO/DMA transactions that cross sockets.
    qpi_hop_ns: float = 100.0
    #: Bandwidth retained by a DMA stream that crosses QPI (large transfers
    #: from/to the alternate socket run at roughly half the PCIe rate).
    cross_dma_bw_factor: float = 0.5
    #: Local-socket DRAM load latency (Table II: 92 ns).
    dram_local_latency_ns: float = 92.0
    #: Remote-socket DRAM load latency (Table II: 162 ns).
    dram_remote_latency_ns: float = 162.0
    #: Table II bandwidths (GB/s == B/ns), per-core stream.
    dram_local_bw_Bns: float = 3.70
    dram_remote_bw_Bns: float = 2.27

    # ---- host CPU / local-memory op model (Fig 4, Fig 6c) ------------------
    #: Local memcpy cost per byte (used by the SP batcher's gather phase).
    memcpy_per_byte_ns: float = 0.06
    #: Fixed per-buffer overhead of a local copy (loop + pointer chase).
    memcpy_base_ns: float = 12.0
    #: Local sequential write per op (Fig 6c plateau ~70 MOPS).
    local_seq_write_ns: float = 14.0
    #: Local random write: a row-buffer miss per op; calibrated so that at
    #: 64 B the random/sequential ratio is ~2.92x (Section I).
    local_rand_write_ns: float = 77.0
    #: Local sequential read (row already in cache).
    local_seq_read_ns: float = 17.0
    #: Local random read (4-8x asymmetry per Section III-B discussion).
    local_rand_read_ns: float = 95.0
    #: readv/writev per-entry syscall-amortized cost (Fig 4 Local-W/Local-R).
    local_writev_entry_ns: float = 11.0
    local_readv_entry_ns: float = 28.0
    #: Streaming bandwidth of cache-resident batched entries (vectored IO
    #: over a working set that fits in L2): calibrated so Local-W tops out
    #: near ~85 MOPS at 32 B entries, putting SP batch-32 at ~44% of it.
    cache_bw_Bns: float = 30.0

    # ---- local atomics (Fig 10 baselines) -----------------------------------
    #: Uncontended local CAS (L1-hit lock cmpxchg).
    local_cas_ns: float = 20.0
    #: Uncontended local FAA.
    local_faa_ns: float = 12.0
    #: Added CAS cost per concurrent spinner (cache-line bouncing); drives
    #: the local spinlock collapse of Fig 10a.
    local_contention_ns: float = 55.0
    #: Added FAA cost per contending thread (Fig 10b local sequencer:
    #: ~100 MOPS total at 16 threads).
    local_faa_contention_ns: float = 10.0

    # ---- RC transport reliability (retransmission / QP errors) -------------
    #: Transport ACK timeout: a requester that has not seen the ACK of an
    #: outstanding request this long after serializing it retransmits.
    #: (Real IB timeouts are 4.096 us * 2^local_ack_timeout; 20 us is a
    #: sim-friendly low setting of the same knob.)
    retrans_timeout_ns: float = 20_000.0
    #: Exponential-backoff multiplier applied to the timeout per retry.
    retrans_backoff: float = 2.0
    #: Ceiling on the backed-off timeout (truncated exponential backoff).
    retrans_timeout_cap_ns: float = 500_000.0
    #: Retransmissions before the WR completes with RETRY_EXC_ERR and the
    #: QP enters the ERR state (IB's 3-bit retry_cnt maxes at 7).
    retry_cnt: int = 7
    #: Control-plane cost of cycling a QP through RESET back to RTS
    #: (re-exchange of QPNs/PSNs out of band; ~tens of us in practice).
    qp_reconnect_ns: float = 50_000.0

    # ---- multi-switch fabric (repro.hw.fabric) -------------------------------
    #: Egress buffer per fabric link, in MTU-sized packets.  A packet that
    #: arrives to a full buffer is tail-dropped and recovered by the RC
    #: retransmission machinery above.
    link_queue_depth: int = 64
    #: Fraction of the link buffer above which departing packets are
    #: ECN-marked (the DCQCN congestion signal).  0 < threshold <= 1.
    ecn_threshold: float = 0.35
    #: Leaf/edge uplink thinning factor: 1.0 builds a non-blocking fabric,
    #: 4.0 gives each leaf a quarter of the uplink bandwidth its hosts
    #: could offer (classic 4:1 oversubscription).
    oversubscription: float = 1.0
    #: Attach a DCQCN-style AI/MD rate limiter to every RNIC port.  Off by
    #: default: the limiter only engages on queued (multi-switch) fabrics,
    #: but the knob is global so single-switch digests stay untouched.
    dcqcn_enabled: bool = False
    #: Multiplicative decrease applied to a port's send rate per ECN-marked
    #: delivery: rate *= (1 - dcqcn_rate_md).
    dcqcn_rate_md: float = 0.5
    #: Additive increase in B/ns restored per microsecond of mark-free
    #: delivery, until the rate returns to line rate.
    dcqcn_rate_ai_Bns: float = 0.10
    #: Floor on the throttled send rate (B/ns) so a marked port always
    #: makes progress.
    dcqcn_min_rate_Bns: float = 0.25
    #: Coalescing window for multiplicative decreases: at most one rate
    #: cut per window, however many marked deliveries land inside it (the
    #: analogue of DCQCN's one-CNP-per-50us timer — a queue transient
    #: marks a whole burst, and reacting to every mark would crash the
    #: rate to the floor).
    dcqcn_md_window_ns: float = 10_000.0

    # ---- RPC substrate (two-sided Send/Recv, Section III-E) -----------------
    #: Server CPU service time per RPC request.  1/700 ns = 1.43 MOPS,
    #: the RPC sequencer plateau of Fig 10b.
    rpc_service_ns: float = 700.0
    #: Number of server threads polling recv queues.
    rpc_server_threads: int = 1

    # ---- proxy-socket design (Section IV-B) -----------------------------------
    #: One hop through a shared-memory message queue between a local socket
    #: and its proxy socket (request push or result pull).
    proxy_ipc_ns: float = 200.0

    def derive(self, **overrides: Any) -> "HardwareParams":
        """A copy with some constants replaced (for ablation studies)."""
        return replace(self, **overrides)

    # -- convenience -----------------------------------------------------
    def wire_time(self, payload_bytes: int) -> float:
        """Serialization time of one payload on the 40 Gbps link, including
        per-packet header overhead and MTU segmentation."""
        if payload_bytes < 0:
            raise ValueError(f"negative payload: {payload_bytes}")
        packets = -(-payload_bytes // self.mtu_bytes) or 1
        total = payload_bytes + packets * self.packet_overhead_bytes
        return total / self.link_bandwidth_Bns

    def pcie_time(self, payload_bytes: int, segments: int = 1) -> float:
        """DMA time over PCIe for ``payload_bytes`` split into ``segments``
        scatter/gather elements (each element pays one TLP setup)."""
        if segments < 1:
            raise ValueError(f"segments must be >= 1, got {segments}")
        setup = self.pcie_tlp_ns + (segments - 1) * self.pcie_tlp_pipelined_ns
        return setup + payload_bytes / self.pcie_bandwidth_Bns

    def validate(self) -> None:
        """Sanity-check invariants; raises ``ValueError`` on nonsense."""
        positive = [
            "link_bandwidth_Bns", "pcie_bandwidth_Bns", "exec_write_ns",
            "exec_read_ns", "exec_atomic_ns", "translation_cache_entries",
            "translation_page_bytes", "machines", "sockets_per_machine",
            "ports_per_rnic", "mtu_bytes",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.dram_remote_latency_ns < self.dram_local_latency_ns:
            raise ValueError("remote-socket DRAM latency must be >= local")
        if self.dram_remote_bw_Bns > self.dram_local_bw_Bns:
            raise ValueError("remote-socket DRAM bandwidth must be <= local")
        if self.max_inline_bytes < 0:
            raise ValueError("max_inline_bytes must be >= 0")
        if self.qp_translation_footprint < 0:
            raise ValueError("qp_translation_footprint must be >= 0")
        if not 1 <= self.translation_cache_min_entries \
                <= self.translation_cache_entries:
            raise ValueError(
                "translation_cache_min_entries must be in "
                "[1, translation_cache_entries]")
        if self.retrans_timeout_ns <= 0:
            raise ValueError("retrans_timeout_ns must be positive")
        if self.retrans_backoff < 1.0:
            raise ValueError("retrans_backoff must be >= 1")
        if self.retrans_timeout_cap_ns < self.retrans_timeout_ns:
            raise ValueError(
                "retrans_timeout_cap_ns must be >= retrans_timeout_ns")
        if self.retry_cnt < 0:
            raise ValueError("retry_cnt must be >= 0")
        if self.qp_reconnect_ns < 0:
            raise ValueError("qp_reconnect_ns must be >= 0")
        if self.link_queue_depth < 1:
            raise ValueError("link_queue_depth must be >= 1")
        if not 0.0 < self.ecn_threshold <= 1.0:
            raise ValueError("ecn_threshold must be in (0, 1]")
        if self.oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1")
        if not 0.0 < self.dcqcn_rate_md < 1.0:
            raise ValueError("dcqcn_rate_md must be in (0, 1)")
        if self.dcqcn_rate_ai_Bns <= 0:
            raise ValueError("dcqcn_rate_ai_Bns must be positive")
        if not 0.0 < self.dcqcn_min_rate_Bns <= self.link_bandwidth_Bns:
            raise ValueError(
                "dcqcn_min_rate_Bns must be in (0, link_bandwidth_Bns]")
        if self.dcqcn_md_window_ns < 0:
            raise ValueError("dcqcn_md_window_ns must be >= 0")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the service plane (see :mod:`repro.tenancy`).

    ``weight`` steers the WFQ share; ``rate_mops``/``burst_ops`` bound the
    tenant with a token bucket (``None`` = unmetered); the remaining fields
    parameterize admission control.  Defaults are permissive: a tenant with
    a bare ``TenantSpec(name=...)`` is scheduled fairly but never rejected.
    """

    name: str
    #: WFQ weight: a weight-2 tenant receives twice the service share of a
    #: weight-1 tenant while both are backlogged.
    weight: float = 1.0
    #: Token-bucket refill rate in MOPS (1 MOPS == 1 op/us); None = no cap.
    rate_mops: Optional[float] = None
    #: Token-bucket burst size in ops.
    burst_ops: int = 32
    #: Admission window: ops admitted but not yet completed.
    max_inflight: int = 4096
    #: Backpressure: reject when this many ops already wait in the
    #: tenant's scheduler queue.
    max_queue_depth: int = 4096
    #: Load shedding: ops still queued this long after submission are
    #: rejected at dispatch time instead of occupying the RNIC.
    deadline_ns: Optional[float] = None

    def __post_init__(self) -> None:
        # Per-field validation at construction: specs built directly (not
        # via ServiceConfig.validate()) otherwise reach the scheduler and
        # crash later, e.g. rate_mops=0.0 -> ZeroDivisionError in
        # _TokenBucket.eligible_at.  Cross-tenant checks stay in
        # ServiceConfig.validate().
        self.validate()

    def validate(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a non-empty name")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name}: weight must be > 0")
        if self.rate_mops is not None and self.rate_mops <= 0:
            raise ValueError(f"tenant {self.name}: rate_mops must be > 0")
        if self.burst_ops < 1:
            raise ValueError(f"tenant {self.name}: burst_ops must be >= 1")
        if self.max_inflight < 1 or self.max_queue_depth < 1:
            raise ValueError(
                f"tenant {self.name}: admission windows must be >= 1")
        if self.deadline_ns is not None and self.deadline_ns <= 0:
            raise ValueError(f"tenant {self.name}: deadline must be > 0")


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of the multi-tenant service plane."""

    tenants: tuple[TenantSpec, ...] = field(default_factory=tuple)
    #: "wfq" = weighted fair queuing; "fifo" = arrival order (the
    #: unisolated baseline a noisy neighbour can monopolize).
    policy: str = "wfq"
    #: Ops the plane keeps in service (granted, not yet completed) at
    #: once — the pipelining window in front of the RNIC.
    scheduler_slots: int = 8
    #: Connection cap: live QPs per tenant before the ConnectionManager
    #: LRU-evicts an idle one (the paper's Section III-D proxying bound).
    qp_cap_per_tenant: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))

    def validate(self) -> None:
        if not self.tenants:
            raise ValueError("ServiceConfig needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        for t in self.tenants:
            t.validate()
        if self.policy not in ("wfq", "fifo"):
            raise ValueError(f"policy must be 'wfq' or 'fifo': {self.policy!r}")
        if self.scheduler_slots < 1:
            raise ValueError("scheduler_slots must be >= 1")
        if self.qp_cap_per_tenant < 1:
            raise ValueError("qp_cap_per_tenant must be >= 1")

    def tenant(self, name: str) -> TenantSpec:
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(f"unknown tenant {name!r} "
                       f"(configured: {[t.name for t in self.tenants]})")


#: Default parameter set used across benchmarks and examples.
DEFAULT = HardwareParams()
DEFAULT.validate()
