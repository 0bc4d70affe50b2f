"""The lane differential: run a workload on each verbs lane and compare.

:func:`run` calls a workload function on the stepped pipeline or the
express lane; :func:`compare` checks two such runs and names the first
completion they disagree on.  This module is the only code that sets
``REPRO_EXPRESS`` (read when an ``RdmaContext`` attaches the lane) or
numbers QPs and MRs from 1 (QP ids seed ECMP and name violations), and
it digests every simulator's completions through the ``completions``
checker of the sanitizer the simulator has at its first ``run()``: the
workload's own, installed before running, or else a completions-only
one installed there.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from typing import Any, Callable, NamedTuple, Optional
from unittest import mock

from repro.check.checkers import CompletionsChecker
from repro.check.sanitizer import Sanitizer
from repro.sim.engine import Simulator
from repro.verbs import mr as mr_module
from repro.verbs import qp as qp_module

__all__ = ["LaneRun", "compare", "run"]

class LaneRun(NamedTuple):
    """``fn``'s value, each simulator's completion digest (first-run
    order), WRs the lane booked (flushes included) and WRs that stepped."""

    value: Any
    digests: list
    express: int
    stepped: int


class _Stop(BaseException):
    """Ends a re-run once the simulator it logs is done (not an
    ``Exception``, so no ``except Exception`` in a workload swallows it)."""


@contextlib.contextmanager
def _lane(express: bool, log_sim: Optional[int] = None):
    """Run the block on one lane with ids numbered from 1.  Yields the
    dict that gains each simulator's completions checker at its first
    ``run()``, and the list that gains simulator ``log_sim``'s completion
    rows (the block ends at the next simulator's first ``run()``)."""
    checkers: dict = {}
    rows: list = []
    sim_run = Simulator.run

    def run(sim, *args, **kwargs):
        if sim.check is None:
            Sanitizer(sim, checkers=("completions",))
        checker = sim.check.completions
        if checker not in checkers:
            if log_sim is not None and len(checkers) > log_sim:
                raise _Stop
            if len(checkers) == log_sim:
                row = checker.row
                checker.row = lambda qp, comp: rows.append(
                    row(qp, comp)) or rows[-1]
            checkers[checker] = None
        return sim_run(sim, *args, **kwargs)

    qp_module._qp_ids = itertools.count(1)
    mr_module._mr_ids = itertools.count(1)
    with mock.patch.dict(os.environ, REPRO_EXPRESS="1" if express else "0"), \
            mock.patch.object(Simulator, "run", run), \
            contextlib.suppress(_Stop):
        yield checkers, rows


def run(fn: Callable[[], Any], express: bool) -> LaneRun:
    """Call ``fn()`` on the express lane or the stepped pipeline."""
    tally = qp_module.tally
    wrs, stepped = tally.completions, sum(tally.stepped.values())
    with _lane(express) as (checkers, _):
        value = fn()
    stepped = sum(tally.stepped.values()) - stepped
    return LaneRun(value, [c.digest for c in checkers],
                   tally.completions - wrs - stepped, stepped)


def _first_difference(a: list, b: list) -> int:
    """Index of the first unequal pair, else the shorter length."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def compare(fn: Callable[[], Any], stepped: LaneRun,
            express: LaneRun) -> Optional[str]:
    """``None`` when two runs of ``fn`` agree on every simulator's
    completion digest.  Otherwise re-run ``fn`` on each lane up to the
    first differing simulator, logging its completions, and return lines
    naming that simulator, its first differing completion and each
    lane's row for it."""
    if stepped.digests == express.digests:
        return None
    sim = _first_difference(stepped.digests, express.digests)
    logs = []
    for lane in (False, True):
        with _lane(lane, log_sim=sim) as (_, rows):
            fn()
        logs.append(rows)
    at = _first_difference(*logs)
    lines = [f"first divergence: simulator {sim}, completion #{at} of "
             f"{len(logs[0])} stepped / {len(logs[1])} express"]
    for name, rows in zip(("stepped", "express"), logs):
        row = rows[at] if at < len(rows) else ()
        lines.append(f"  {name}: " + (" ".join(map(
            "{}={}".format, CompletionsChecker.FIELDS, row))
            or "(no completion)"))
    return "\n".join(lines)
