"""repro.check — the simulation invariant sanitizer (TSan/UBSan analogue).

Opt-in runtime checking for the simulated RDMA semantics: install a
:class:`Sanitizer` on a :class:`~repro.sim.Simulator` and every
instrumented layer (engine dispatch, QP post/complete/state transitions,
lock/sequencer/consolidator/tenancy call sites) streams its actions
through pluggable checkers.  Disabled (the default), the hooks cost one
``is None`` branch per site and nothing else — the perf gate runs with
them off and its schedule digests are bit-identical.

Quick use::

    from repro.check import Sanitizer

    sim, cluster, ctx = build(machines=2)
    san = Sanitizer(sim)          # install BEFORE building the workload
    ...                           # run anything
    report = san.finalize()       # after the sim drains
    report.raise_if_violations()

``python -m repro.check`` runs the ``make check`` suite: the apps and
chaos scenarios, every checker enabled, on both verbs lanes.
See docs/CHECKING.md for the checker catalog and the overhead contract.
"""

from repro.check.report import CheckReport, CheckViolationError, Violation
from repro.check.sanitizer import CHECKER_NAMES, Sanitizer
from repro.check.testing import CheckerHarness, with_checkers

__all__ = [
    "CHECKER_NAMES",
    "CheckReport",
    "CheckViolationError",
    "CheckerHarness",
    "Sanitizer",
    "Violation",
    "with_checkers",
]
