"""The Sanitizer: hook dispatcher wired into a Simulator's ``check`` slot.

Instrumented layers (engine dispatch, QP post/complete/state,
context QP lifecycle, lock/sequencer/consolidator/tenancy call sites) all
read ``sim.check`` — ``None`` by default, in which case the only cost is
one predictable branch per hook site.  Installing a :class:`Sanitizer`
points that slot at an object whose ``on_*`` hooks fan out to the
enabled checkers (:mod:`repro.check.checkers`,
:mod:`repro.check.oracles`).

A checker subscribes to a hook by defining a method with the hook's
name; :data:`HOOKS` is every such name across :data:`_CHECKERS`.  The
hook table is built once, at install: a hook no enabled checker defines
is a no-op, a hook one checker defines is that checker's bound method,
and any other hook calls its subscribers in :data:`_CHECKERS` order.

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

__all__ = ["CHECKER_NAMES", "HOOKS", "Sanitizer"]

#: Every pluggable checker class, in report (and hook fan-out) order.
_CHECKERS = (ConservationChecker, QpStateChecker, OverlapChecker,
             LockOracle, SequencerOracle, ConsolidationChecker,
             TenancyChecker, TxnOracle, FabricChecker, CacheChecker,
             CompletionsChecker)

CHECKER_NAMES = tuple(c.name for c in _CHECKERS)

#: Every hook a Sanitizer answers: the ``on_*`` methods of the checkers.
HOOKS = frozenset(attr for c in _CHECKERS for attr in vars(c)
                  if attr.startswith("on_"))


def _ignore(*args) -> None:
    """A hook no enabled checker subscribes to."""


def _fan_out(methods: tuple):
    if not methods:
        return _ignore
    if len(methods) == 1:
        return methods[0]

    def hook(*args) -> None:
        for method in methods:
            method(*args)
    return hook


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
    """

    def __init__(self, sim, checkers: Optional[Iterable[str]] = None,
                 strict_overlap: bool = False):
        names = tuple(CHECKER_NAMES if checkers is None else checkers)
        unknown = set(names) - set(CHECKER_NAMES)
        if unknown:
            raise ValueError(
                f"unknown checkers {sorted(unknown)}; "
                f"available: {CHECKER_NAMES}")
        if sim.check is not None:
            raise RuntimeError(
                "simulator already has a sanitizer installed; finalize() "
                "or uninstall() it first")
        self.sim = sim
        self.report = CheckReport()
        self.enabled = names
        self.strict_overlap = strict_overlap
        self._checkers = []
        for cls in _CHECKERS:
            checker = cls(self) if cls.name in names else None
            setattr(self, cls.name, checker)
            if checker is not None:
                self._checkers.append(checker)
        for hook in HOOKS:
            setattr(self, hook, _fan_out(tuple(
                getattr(c, hook) for c in self._checkers
                if hasattr(c, hook))))
        sim.check = self

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
            for checker in self._checkers:
                if hasattr(checker, "finalize"):
                    checker.finalize()
            self.report.finalized = True
        self.uninstall()
        return self.report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Sanitizer checkers={self.enabled} "
                f"violations={self.report.total}>")
