"""The Sanitizer: hook dispatcher wired into a Simulator's ``check`` slot.

Instrumented layers (engine dispatch, QP post/complete/state,
context QP lifecycle, lock/sequencer/consolidator/tenancy call sites) all
read ``sim.check`` — ``None`` by default, in which case the only cost is
one predictable branch per hook site.  Installing a :class:`Sanitizer`
points that slot at an object whose ``on_*`` methods fan out to the
enabled checkers (:mod:`repro.check.checkers`,
:mod:`repro.check.oracles`).

Design contract (docs/CHECKING.md):

* **Schedule-neutral** — checkers never create events, draw randomness,
  or mutate model state, so a run with checkers enabled dispatches the
  exact same event sequence as one without.
* **Install before running** — the engine binds ``sim.check`` to a local
  at ``run()`` entry; install the sanitizer before the first ``run()``
  call (and before building the workload, so constructors can register).
* **Finalize after draining** — end-of-run invariants (conservation
  leftovers, lock-word deadlock, sequencer density, consolidator
  pruning) assume no WR is legitimately still in flight.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.check.checkers import (
    CacheChecker,
    CompletionsChecker,
    ConservationChecker,
    ConsolidationChecker,
    FabricChecker,
    OverlapChecker,
    QpStateChecker,
    TenancyChecker,
)
from repro.check.oracles import LockOracle, SequencerOracle, TxnOracle
from repro.check.report import CheckReport, Violation

__all__ = ["CHECKER_NAMES", "Sanitizer"]

#: Every pluggable checker, in report order.
CHECKER_NAMES = ("conservation", "qp_state", "overlap", "locks",
                 "sequencer", "consolidation", "tenancy", "txn", "fabric",
                 "cache", "completions")


class Sanitizer:
    """Installs itself on ``sim.check`` and dispatches hooks to checkers.

    Parameters
    ----------
    sim:
        The simulator to instrument (its ``check`` slot must be free).
    checkers:
        Iterable of checker names to enable (default: all of
        :data:`CHECKER_NAMES`).
    strict_overlap:
        Enable the overlap checker's WRITE-WRITE race detection (claims
        are always enforced).  Only sound for workloads whose concurrent
        writers target disjoint ranges — not for last-writer-wins designs.
    sweep_every:
        Dispatched events between periodic sweeps (consolidator growth).
    """

    def __init__(self, sim, checkers: Optional[Iterable[str]] = None,
                 strict_overlap: bool = False, sweep_every: int = 4096):
        names = tuple(CHECKER_NAMES if checkers is None else checkers)
        unknown = set(names) - set(CHECKER_NAMES)
        if unknown:
            raise ValueError(
                f"unknown checkers {sorted(unknown)}; "
                f"available: {CHECKER_NAMES}")
        if sweep_every < 1:
            raise ValueError(f"sweep_every must be >= 1: {sweep_every}")
        self.sim = sim
        self.report = CheckReport()
        self.enabled = names
        self.conservation = (ConservationChecker(self)
                             if "conservation" in names else None)
        self.qp_state = QpStateChecker(self) if "qp_state" in names else None
        self.overlap = (OverlapChecker(self, strict=strict_overlap)
                        if "overlap" in names else None)
        self.locks = LockOracle(self) if "locks" in names else None
        self.sequencer = SequencerOracle(self) if "sequencer" in names else None
        self.consolidation = (ConsolidationChecker(self)
                              if "consolidation" in names else None)
        self.tenancy = TenancyChecker(self) if "tenancy" in names else None
        self.txn = TxnOracle(self) if "txn" in names else None
        self.fabric = FabricChecker(self) if "fabric" in names else None
        self.cache = CacheChecker(self) if "cache" in names else None
        self.completions = (CompletionsChecker(self)
                            if "completions" in names else None)
        self.sweep_every = sweep_every
        self._tick = 0
        if sim.check is not None:
            raise RuntimeError(
                "simulator already has a sanitizer installed; finalize() "
                "or uninstall() it first")
        sim.check = self

    # -- lifecycle ----------------------------------------------------------
    def record(self, checker: str, where: str, stage: str,
               message: str) -> None:
        """File one violation (checkers call this; tests may too)."""
        self.report.add(
            Violation(checker, self.sim.now, where, stage, message))

    def uninstall(self) -> None:
        if self.sim.check is self:
            self.sim.check = None

    def finalize(self) -> CheckReport:
        """Run end-of-run invariants, detach, and return the report.

        Call only after the simulation has drained (no WRs legitimately
        in flight); idempotent.
        """
        if not self.report.finalized:
            for checker in (self.conservation, self.locks, self.sequencer,
                            self.consolidation, self.txn, self.fabric):
                if checker is not None:
                    checker.finalize()
            self.report.finalized = True
        self.uninstall()
        return self.report

    # -- engine hooks --------------------------------------------------------
    def on_dispatch(self, when: float) -> None:
        self._tick += 1
        if self._tick >= self.sweep_every:
            self._tick = 0
            if self.consolidation is not None:
                self.consolidation.sweep()

    # -- verbs hooks ---------------------------------------------------------
    def on_posted(self, qp, wr) -> None:
        if self.conservation is not None:
            self.conservation.on_posted(qp, wr)
        if self.qp_state is not None:
            self.qp_state.on_posted(qp, wr)
        if self.overlap is not None:
            self.overlap.on_posted(qp, wr)

    def on_completed(self, qp, wr, comp) -> None:
        if self.conservation is not None:
            self.conservation.on_completed(qp, wr, comp)
        if self.overlap is not None:
            self.overlap.on_completed(qp, wr, comp)
        if self.locks is not None:
            self.locks.on_completed(qp, wr, comp)
        if self.completions is not None:
            self.completions.on_completed(qp, wr, comp)

    def on_qp_created(self, qp) -> None:
        if self.conservation is not None:
            self.conservation.on_qp_created(qp)
        if self.qp_state is not None:
            self.qp_state.on_qp_created(qp)

    def on_qp_destroyed(self, qp) -> None:
        if self.conservation is not None:
            self.conservation.on_qp_destroyed(qp)

    def on_qp_state(self, qp, old, new) -> None:
        if self.qp_state is not None:
            self.qp_state.on_qp_state(qp, old, new)

    # -- core hooks ------------------------------------------------------------
    def on_lock_acquired(self, lock) -> None:
        if self.locks is not None:
            self.locks.on_acquired(lock)

    def on_lock_release_start(self, lock) -> None:
        if self.locks is not None:
            self.locks.on_release_start(lock)

    def on_rpc_lock_granted(self, key, owner_qp_id: int) -> None:
        if self.locks is not None:
            self.locks.on_rpc_granted(key, owner_qp_id)

    def on_rpc_lock_released(self, key, requester_qp_id: int, holder,
                             accepted: bool) -> None:
        if self.locks is not None:
            self.locks.on_rpc_released(key, requester_qp_id, holder,
                                       accepted)

    def on_sequence(self, key, first, n: int, owner) -> None:
        if self.sequencer is not None:
            self.sequencer.on_sequence(key, first, n, owner)

    def register_consolidator(self, cons) -> None:
        if self.consolidation is not None:
            self.consolidation.register(cons)

    def on_consolidator_flush(self, cons) -> None:
        if self.consolidation is not None:
            self.consolidation.on_flush(cons)

    # -- txn hooks ---------------------------------------------------------------
    def on_txn_store(self, store) -> None:
        if self.txn is not None:
            self.txn.on_store(store)

    def on_txn_begin(self, client, txn_id: str) -> None:
        if self.txn is not None:
            self.txn.on_begin(client, txn_id)

    def on_txn_read(self, client, txn_id: str, key: int,
                    version: int) -> None:
        if self.txn is not None:
            self.txn.on_read(client, txn_id, key, version)

    def on_txn_validate(self, client, txn_id: str, key: int, word: int,
                        ok: bool) -> None:
        if self.txn is not None:
            self.txn.on_validate(client, txn_id, key, word, ok)

    def on_txn_commit(self, client, txn_id: str, reads: dict,
                      writes: dict) -> None:
        if self.txn is not None:
            self.txn.on_commit(client, txn_id, reads, writes)

    def on_txn_abort(self, client, txn_id: str, reason: str) -> None:
        if self.txn is not None:
            self.txn.on_abort(client, txn_id, reason)

    # -- fabric hooks --------------------------------------------------------
    def on_fabric_hop(self, link, packets: int, outcome: str) -> None:
        """One message crossed (or died at) one fabric link.

        ``outcome``: "ok" | "ecn" (delivered with a mark) | "drop".
        Called at each hop's admit on queued fabrics only — plain
        single-switch routes have no links to conserve.
        """
        if self.fabric is not None:
            self.fabric.on_hop(link, packets, outcome)

    # -- serving-tier cache hooks --------------------------------------------
    def on_cache_fill(self, cache, key: int, version: int) -> None:
        """A remote read populated a front-cache entry."""
        if self.cache is not None:
            self.cache.on_fill(cache, key, version)

    def on_cache_hit(self, cache, key: int, version: int) -> None:
        """A read was served from a front cache without touching the wire."""
        if self.cache is not None:
            self.cache.on_hit(cache, key, version)

    def on_cache_invalidate(self, key: int, version: int) -> None:
        """A write was acknowledged; the invalidation directory fanned out."""
        if self.cache is not None:
            self.cache.on_invalidate(key, version)

    # -- tenancy hooks -----------------------------------------------------------
    def on_bucket_consume(self, tenant: str, bucket) -> None:
        if self.tenancy is not None:
            self.tenancy.on_bucket_consume(tenant, bucket)

    def on_slo_record(self, tenant: str, slo) -> None:
        if self.tenancy is not None:
            self.tenancy.on_slo_record(tenant, slo)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Sanitizer checkers={self.enabled} "
                f"violations={self.report.total}>")
