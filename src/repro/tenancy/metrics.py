"""Per-tenant SLO metrics: op counts, goodput, tail latency, reject rates.

Latency is measured end-to-end from the moment the client handed the op
to the service plane (so scheduler queuing is *included* — that is the
tenant-visible number) to its completion.  Percentiles interpolate over
the raw per-op samples; with the simulator deterministic under the root
seed, so are the tails.
"""

from __future__ import annotations

from array import array
from collections import Counter

from repro.sim import Simulator
from repro.sim.stats import percentiles

__all__ = ["SLOMetrics", "TenantSLO"]


class TenantSLO:
    """Mutable per-tenant accumulator."""

    __slots__ = ("ops", "bytes", "latencies", "rejects", "by_opcode",
                 "first_ns", "last_ns", "retries", "errors",
                 "cache_hits", "cache_misses", "cache_invalidations")

    def __init__(self):
        self.ops = 0
        self.bytes = 0
        self.latencies: array = array("d")
        self.rejects: Counter = Counter()
        self.by_opcode: Counter = Counter()
        self.first_ns = 0.0
        self.last_ns = 0.0
        #: Transport retransmissions absorbed by this tenant's ops (ops
        #: that recovered still count as successes — this is the hidden
        #: cost of a lossy path).
        self.retries = 0
        #: Failed completions by status value ("retry_exceeded",
        #: "wr_flushed", ...); rejects are tracked separately because
        #: admission drops never reached the hardware.
        self.errors: Counter = Counter()
        #: Serving-tier front cache (``repro.load``): reads absorbed
        #: client-side (hits never touch the wire or the plane), reads
        #: that went remote, and entries dropped by write invalidations.
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0

    @property
    def rejected(self) -> int:
        return sum(self.rejects.values())

    @property
    def errored(self) -> int:
        return sum(self.errors.values())

    @property
    def error_rate(self) -> float:
        total = self.ops + self.errored
        return self.errored / total if total else 0.0

    @property
    def reject_rate(self) -> float:
        total = self.ops + self.rejected
        return self.rejected / total if total else 0.0

    @property
    def goodput_gbps(self) -> float:
        """Completed bytes per ns (== GB/s) over the tenant's active span."""
        span = self.last_ns - self.first_ns
        return self.bytes / span if span > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def latency_percentiles(self) -> dict[str, float]:
        xs = sorted(self.latencies)
        p50, p99, p999 = percentiles(xs, [50, 99, 99.9])
        return {"p50": p50, "p99": p99, "p999": p999}


class SLOMetrics:
    """Holds one :class:`TenantSLO` per tenant and renders reports."""

    def __init__(self, sim: Simulator, tenants: list[str]):
        self.sim = sim
        self.tenants: dict[str, TenantSLO] = {t: TenantSLO() for t in tenants}

    def __getitem__(self, tenant: str) -> TenantSLO:
        return self.tenants[tenant]

    def record_op(self, tenant: str, latency_ns: float, nbytes: int,
                  opcode: str, status: str = "success",
                  retries: int = 0) -> None:
        """Fold one finished op into the tenant's ledger.

        Successful ops count toward goodput and the latency percentiles;
        failed completions (``status`` != "success") only count in
        ``errors`` — a flushed WR moved no bytes.  ``retries`` accumulate
        either way: a lossy path taxes the tenant even when ops recover.
        """
        slo = self.tenants[tenant]
        slo.retries += retries
        if status != "success":
            slo.errors[status] += 1
            check = self.sim.check
            if check is not None:
                check.on_slo_record(tenant, slo)
            return
        if slo.ops == 0:
            slo.first_ns = self.sim.now - latency_ns
        slo.ops += 1
        slo.bytes += nbytes
        slo.latencies.append(latency_ns)
        slo.by_opcode[opcode] += 1
        slo.last_ns = self.sim.now
        check = self.sim.check
        if check is not None:
            check.on_slo_record(tenant, slo)

    def record_cache(self, tenant: str, event: str) -> None:
        """Fold one front-cache event ("hit" | "miss" | "invalidate")
        into the tenant's ledger (see :mod:`repro.load`)."""
        slo = self.tenants[tenant]
        if event == "hit":
            slo.cache_hits += 1
        elif event == "miss":
            slo.cache_misses += 1
        elif event == "invalidate":
            slo.cache_invalidations += 1
        else:
            raise ValueError(f"unknown cache event {event!r}")
        check = self.sim.check
        if check is not None:
            check.on_slo_record(tenant, slo)

    def record_reject(self, tenant: str, reason: str) -> None:
        slo = self.tenants[tenant]
        slo.rejects[reason] += 1
        check = self.sim.check
        if check is not None:
            check.on_slo_record(tenant, slo)

    # -- reporting ----------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """Per-tenant summary dict (stable key order = config order)."""
        out = {}
        for name, slo in self.tenants.items():
            pct = slo.latency_percentiles()
            out[name] = {
                "ops": slo.ops,
                "bytes": slo.bytes,
                "goodput_gbps": slo.goodput_gbps,
                "p50_us": pct["p50"] / 1000.0,
                "p99_us": pct["p99"] / 1000.0,
                "p999_us": pct["p999"] / 1000.0,
                "rejected": slo.rejected,
                "reject_rate": slo.reject_rate,
                "rejects_by_reason": dict(slo.rejects),
                "retries": slo.retries,
                "errored": slo.errored,
                "error_rate": slo.error_rate,
                "errors_by_status": dict(slo.errors),
                "cache_hits": slo.cache_hits,
                "cache_misses": slo.cache_misses,
                "cache_invalidations": slo.cache_invalidations,
                "cache_hit_rate": slo.cache_hit_rate,
            }
        return out

    def report(self) -> str:
        """ASCII SLO table, one row per tenant."""
        header = ["tenant", "ops", "GB/s", "p50 us", "p99 us", "p999 us",
                  "rejected", "rej %", "retries", "errors"]
        rows = []
        for name, s in self.snapshot().items():
            rows.append([
                name, str(s["ops"]), f"{s['goodput_gbps']:.3f}",
                f"{s['p50_us']:.2f}", f"{s['p99_us']:.2f}",
                f"{s['p999_us']:.2f}", str(s["rejected"]),
                f"{100 * s['reject_rate']:.1f}", str(s["retries"]),
                str(s["errored"]),
            ])
        widths = [max(len(header[c]), *(len(r[c]) for r in rows)) if rows
                  else len(header[c]) for c in range(len(header))]
        fmt = lambda row: "  ".join(c.rjust(w) for c, w in zip(row, widths))
        sep = "  ".join("-" * w for w in widths)
        return "\n".join([fmt(header), sep] + [fmt(r) for r in rows])
