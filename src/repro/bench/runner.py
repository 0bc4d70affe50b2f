"""Shared measurement machinery for the bench targets.

Measurement conventions, so every figure is comparable:

* **Fresh rig per data point.**  Each sweep point builds its own
  simulator (:func:`fresh_rig` / ``repro.build``) rather than reusing
  one, so points are independent and caches (translation, QP context)
  start cold everywhere — the paper's per-configuration runs do the
  same.  Consequence for timing: sweep cost is dominated by model
  bytecode, not a shared warm engine; see docs/PERFORMANCE.md.
* **Closed-loop clients.**  :class:`PipelinedClient` keeps ``depth``
  WRs in flight on one QP and measures steady-state MOPS only after
  ``warmup`` completions, so ramp-up (cold caches, empty pipelines)
  never contaminates a quoted rate.
* **Aggregate then report.**  Targets drive all clients in one
  simulation (:func:`drive_all`) and sum their per-client MOPS — clients
  contend for real shared resources (execution units, PCIe, wire), so
  the sum is a contended aggregate, not n× a solo run.
* **Timing-only WRs by default.**  :func:`write_wr` / :func:`read_wr`
  set ``move_data=False``: byte movement is modelled in time but not
  materialized, keeping micro-benchmarks allocation-free.  Tests that
  verify data integrity build their own WRs with ``move_data=True``.
* **Points are the unit of parallelism.**  Because every point is a
  fresh rig, each target is the ``points(quick)`` / ``run_point(point,
  quick)`` / ``assemble(values, quick)`` contract, which
  :func:`repro.bench.parallel.run_campaign` runs inline or fans over its
  warm worker pool, caching per-point results — with tables
  bit-identical either way.  docs/BENCHMARKS.md catalogs every target;
  docs/PERFORMANCE.md specifies the contract.

Everything here is deterministic given the rig's seed: run order is
fixed by the event heap's (time, priority, sequence) key, never by host
scheduling.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro import build
from repro.hw import HardwareParams
from repro.sim import Event, Simulator
from repro.sim.stats import mops
from repro.verbs import Opcode, QueuePair, Sge, Worker, WorkRequest

__all__ = ["PipelinedClient", "bench_seed", "drive_all", "fresh_rig",
           "set_campaign_seed"]


#: Campaign-wide seed offset (see ``bench_seed``).  0 is the published
#: default: every figure uses its historical per-module seeds and the
#: perf harness digests stay pinned.
_CAMPAIGN_SEED = 0


def set_campaign_seed(seed: int) -> None:
    """Select the campaign seed for this process (CLI ``--seed``).

    The parallel campaign layer calls this in every worker process before
    running a point, so ``--seed N`` campaigns are reproducible no matter
    how points are scheduled across the pool.
    """
    global _CAMPAIGN_SEED
    _CAMPAIGN_SEED = int(seed)


def bench_seed(base: int) -> int:
    """Derive a module rng seed from its historical ``base`` seed.

    With the default campaign seed 0 this is the identity, so default-run
    schedules (and their SHA-256 digests) never move.  A non-zero campaign
    seed mixes deterministically with ``base`` via an odd multiplier, so
    alternate-seed campaigns re-draw every stream while distinct base
    seeds keep distinct streams.
    """
    if _CAMPAIGN_SEED == 0:
        return base
    return (base + _CAMPAIGN_SEED * 0x9E3779B1) % (1 << 63)


def fresh_rig(machines: int = 2, params: Optional[HardwareParams] = None,
              mr_bytes: int = 1 << 20, mr_socket: int = 0):
    """(sim, ctx, local_mr, remote_mr, qp, worker) — the one-to-one setup
    most micro-benchmarks start from."""
    sim, cluster, ctx = build(machines=machines, params=params)
    lmr = ctx.register(0, mr_bytes, socket=mr_socket)
    rmr = ctx.register(1, mr_bytes, socket=mr_socket)
    qp = ctx.create_qp(0, 1)
    worker = Worker(ctx, 0, socket=0)
    return sim, ctx, lmr, rmr, qp, worker


def drive_all(sim: Simulator, gens: list[Generator]) -> None:
    """Run a set of client generators to completion."""
    procs = [sim.process(g) for g in gens]
    for p in procs:
        sim.run(until=p)


class PipelinedClient:
    """Closed-loop client keeping ``depth`` WRs in flight on one QP.

    ``wr_factory(i)`` builds the i-th work request.  Steady-state MOPS is
    measured after ``warmup`` completions.
    """

    def __init__(self, worker: Worker, qp: QueuePair,
                 wr_factory: Callable[[int], WorkRequest], depth: int = 16):
        if depth < 1:
            raise ValueError(f"depth must be >= 1: {depth}")
        self.worker = worker
        self.qp = qp
        self.wr_factory = wr_factory
        self.depth = depth
        self.completed = 0
        self.t_start: Optional[float] = None
        self.t_end: Optional[float] = None
        self.measured_ops = 0

    def run(self, n_ops: int, warmup: int = 200) -> Generator:
        sim = self.worker.sim
        inflight: list[Event] = []
        total = n_ops + warmup
        for i in range(total):
            if len(inflight) >= self.depth:
                yield from self.worker.wait(inflight.pop(0))
                self._complete(warmup)
            ev = yield from self.worker.post(self.qp, self.wr_factory(i))
            inflight.append(ev)
        for ev in inflight:
            yield from self.worker.wait(ev)
            self._complete(warmup)
        self.t_end = sim.now

    def _complete(self, warmup: int) -> None:
        self.completed += 1
        if self.completed == warmup:
            self.t_start = self.worker.sim.now
        elif self.completed > warmup:
            self.measured_ops += 1

    @property
    def mops(self) -> float:
        if self.t_start is None or self.t_end is None:
            return 0.0
        return mops(self.measured_ops, self.t_end - self.t_start)


def write_wr(lmr, rmr, size: int, offset: int = 0) -> WorkRequest:
    """A timing-only WRITE work request (the micro-benchmark staple)."""
    return WorkRequest(Opcode.WRITE, sgl=[Sge(lmr, offset, size)],
                       remote_mr=rmr, remote_offset=offset, move_data=False)


def read_wr(lmr, rmr, size: int, offset: int = 0) -> WorkRequest:
    return WorkRequest(Opcode.READ, sgl=[Sge(lmr, offset, size)],
                       remote_mr=rmr, remote_offset=offset, move_data=False)
