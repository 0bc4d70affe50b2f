"""Per-operation stage tracing: the paper's latency decomposition, live.

Section III-D decomposes a remote access as
``T_RNIC->Socket + T_Socket->Memory + T_Network``; the tracer records the
actual simulated duration of every pipeline stage of every traced WR, so
the decomposition (and the cost of any placement/batching decision) can
be read off instead of inferred.

Attach with ``ctx.attach_tracer(OpTracer())`` — subsequent QPs inherit
it; existing QPs are updated too.  Tracing is off by default and costs
nothing when off.  A traced WR runs on the lane it would run on
untraced: the stepped pipeline (``QueuePair._execute``) and the express
lane (:mod:`repro.verbs.express`) stamp the same stages at the same
instants through :meth:`OpRecord.stamp`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.stats import StatAccumulator

__all__ = ["OpRecord", "OpTracer", "STAGES"]

#: Stage names in pipeline order.
STAGES = [
    "wqe_fetch",      # RNIC DMA-reads the WQE (and doorbell batch lists)
    "payload_fetch",  # payload DMA over PCIe (0 for inline/inbound ops)
    "exec",           # requester execution unit (incl. translation, SGEs)
    "retrans",        # lost attempts: wasted exec time + transport timeouts
    "network",        # outbound fabric traversal
    "responder",      # remote RNIC processing + host-memory DMA
    "response_net",   # ACK/response traversal back
    "delivery",       # READ data scatter + CQE DMA
]


@dataclass
class OpRecord:
    """One traced work request."""

    opcode: str
    nbytes: int
    start_ns: float
    end_ns: float = 0.0
    stages: dict = field(default_factory=dict)
    #: Free-form labels attached at begin() time (e.g. the tenancy layer's
    #: ``{"tenant": "gold"}``); flow into Chrome-trace event args, and a
    #: ``tenant`` tag additionally groups the export into per-tenant
    #: process tracks.
    tags: Optional[dict] = None
    #: Retransmissions this WR needed (0 on the sunny path); the time they
    #: cost is the "retrans" stage.
    retries: int = 0
    #: Instant the last stamped stage ended (``start_ns`` before any).
    mark: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.mark = self.start_ns

    def stamp(self, stage: str, now: float) -> None:
        """Charge the time since the last stamp to ``stage``.

        A stage stamped twice accumulates; a zero-length stamp still
        enters ``stages``, so it adds a sample to the stage's mean."""
        stages = self.stages
        stages[stage] = stages.get(stage, 0.0) + (now - self.mark)
        self.mark = now

    @property
    def latency_ns(self) -> float:
        return self.end_ns - self.start_ns


class OpTracer:
    """Collects OpRecords and aggregates per-stage statistics."""

    def __init__(self, keep_records: bool = True, max_records: int = 100_000):
        self.keep_records = keep_records
        self.max_records = max_records
        self.records: list[OpRecord] = []
        self._stats: dict[tuple[str, str], StatAccumulator] = defaultdict(
            StatAccumulator)
        self._latency: dict[str, StatAccumulator] = defaultdict(
            StatAccumulator)
        self.dropped = 0

    # -- recording (called from the QP pipeline) ---------------------------
    def begin(self, opcode: str, nbytes: int, now: float,
              tags: Optional[dict] = None) -> OpRecord:
        return OpRecord(opcode=opcode, nbytes=nbytes, start_ns=now, tags=tags)

    def commit(self, record: OpRecord, now: float) -> None:
        """Finalize a record: fold it into the aggregates and (space
        permitting) keep it.

        Aggregate statistics (``ops``/``mean_*``/``breakdown*``) always
        count every committed record; ``dropped`` only tracks record
        *storage* — once ``max_records`` is reached, further records are
        not retained for export (``records``/``to_chrome_trace``) but
        their stages and latency still land in the aggregates.
        """
        record.end_ns = now
        for stage, dur in record.stages.items():
            self._stats[(record.opcode, stage)].add(dur)
        self._latency[record.opcode].add(record.latency_ns)
        if self.keep_records:
            if len(self.records) < self.max_records:
                self.records.append(record)
            else:
                self.dropped += 1

    # -- queries -------------------------------------------------------------
    def ops(self, opcode: Optional[str] = None) -> int:
        if opcode is None:
            return sum(acc.count for acc in self._latency.values())
        return self._latency[opcode].count if opcode in self._latency else 0

    def mean_latency_ns(self, opcode: str) -> float:
        return self._latency[opcode].mean if opcode in self._latency else 0.0

    def mean_stage_ns(self, opcode: str, stage: str) -> float:
        key = (opcode, stage)
        return self._stats[key].mean if key in self._stats else 0.0

    def breakdown(self, opcode: str) -> dict[str, float]:
        """Mean ns per stage for one opcode, pipeline order."""
        return {s: self.mean_stage_ns(opcode, s) for s in STAGES}

    def breakdown_table(self) -> str:
        """ASCII table of the decomposition for every traced opcode."""
        opcodes = sorted(self._latency)
        lines = []
        header = ["stage"] + [f"{op} (ns)" for op in opcodes]
        widths = [max(len(h), 14) for h in header]
        lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for stage in STAGES:
            row = [stage] + [f"{self.mean_stage_ns(op, stage):.0f}"
                             for op in opcodes]
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        total = ["total latency"] + [f"{self.mean_latency_ns(op):.0f}"
                                     for op in opcodes]
        lines.append("  ".join(c.rjust(w) for c, w in zip(total, widths)))
        return "\n".join(lines)

    def reset(self) -> None:
        self.records.clear()
        self._stats.clear()
        self._latency.clear()
        self.dropped = 0

    # -- export ---------------------------------------------------------------
    def to_chrome_trace(self) -> list[dict]:
        """Records as Chrome-tracing events (``chrome://tracing`` /
        Perfetto JSON array format; timestamps in microseconds).

        Each op is a track (tid = opcode), each stage a complete event,
        so the pipeline renders as a waterfall.  Records tagged with a
        ``tenant`` render on that tenant's own process track (pid), with a
        process_name metadata event naming it; all other tags pass through
        into the event args.
        """
        events: list[dict] = []
        tids: dict = {}
        tenant_pids: dict = {}
        for record in self.records:
            tenant = (record.tags or {}).get("tenant")
            if tenant is None:
                pid = 1
            elif tenant in tenant_pids:
                pid = tenant_pids[tenant]
            else:
                pid = tenant_pids[tenant] = len(tenant_pids) + 2
            tid = tids.setdefault((pid, record.opcode), len(tids) + 1)
            args = {"bytes": record.nbytes}
            if record.retries:
                args["retries"] = record.retries
            if record.tags:
                args.update(record.tags)
            cursor = record.start_ns
            for stage in STAGES:
                dur = record.stages.get(stage, 0.0)
                if dur <= 0:
                    continue
                events.append({
                    "name": stage,
                    "cat": record.opcode,
                    "ph": "X",
                    "ts": cursor / 1000.0,
                    "dur": dur / 1000.0,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                })
                cursor += dur
        for tenant, pid in tenant_pids.items():
            events.append({
                "name": "process_name", "ph": "M", "pid": pid,
                "args": {"name": f"tenant {tenant}"},
            })
        return events

    def dump_chrome_trace(self, path) -> int:
        """Write the Chrome trace JSON to ``path``; returns event count."""
        import json
        events = self.to_chrome_trace()
        with open(path, "w") as fh:
            json.dump(events, fh)
        return len(events)
