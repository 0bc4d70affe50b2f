"""Point campaigns: every bench target as a sweep of independent points.

Every bench target builds a **fresh rig per sweep point** (see
:mod:`repro.bench.runner`), which makes points embarrassingly parallel:
the unit of parallelism is the *configuration*, exactly as in the paper's
per-configuration measurement protocol.  This module decomposes a
target's sweep into independent point tasks, runs them inline or on a
:class:`WorkerPool`, and merges results back in **canonical sweep
order**, so the assembled :class:`~repro.bench.report.FigureResult`
tables — and the perf harness's SHA-256 schedule digests — are
bit-identical to a serial run.

Target-module contract (every :data:`~repro.bench.TARGETS` module,
the meta targets ``summary``, ``breakdown`` and ``scorecard`` included,
implements it):

``points(quick) -> list[dict]``
    The sweep decomposed into JSON-serializable point descriptors in
    canonical order.  A point is self-contained: together with ``quick``
    and the campaign seed it fully determines one measurement.

``run_point(point, quick) -> value``
    Runs one point on a fresh rig and returns a JSON-native value
    (float / int / str / bool / list / dict-with-str-keys).  Pure: no
    reads of module state mutated by other points.

``assemble(values, quick) -> FigureResult | list[FigureResult]``
    Zips the per-point values (aligned with ``points(quick)``) back into
    the target's figure panel(s), including the paper-anchor checks.

:func:`run_campaign` is the one way to get a target's figures.  With no
``pool`` it runs every point inline, in ``points()`` order; a pool only
changes *where* each point executes, never what it computes — that is
the whole determinism contract (docs/PERFORMANCE.md, "Parallel
campaigns").

**The pool.**  A :class:`WorkerPool` is forked by its caller, once per
invocation (``python -m repro.bench all --jobs N`` serves every campaign
from one pool), and takes one point per message.  A worker that dies
fails the campaign with a :class:`CampaignError` naming its point and
exitcode; any error, KeyboardInterrupt included, terminates every worker
so no orphan process survives.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Optional

from repro.bench import TARGETS
from repro.bench.report import FigureResult
from repro.bench.runner import set_campaign_seed

__all__ = [
    "CampaignError",
    "CampaignResult",
    "WorkerPool",
    "compute_points",
    "default_jobs",
    "figure_outcome",
    "figures_digest",
    "jobs_arg",
    "profiled",
    "run_campaign",
]


@contextlib.contextmanager
def profiled(label: str, enable: bool = True, top: int = 20):
    """cProfile the enclosed block; print the top-``top`` functions by
    cumulative time.  Profiles the *calling* process only — with a
    worker pool, point evaluation happens in the workers, so profile
    with ``--jobs 1`` to see model internals."""
    if not enable:
        yield
        return
    import cProfile
    import io
    import pstats
    prof = cProfile.Profile()
    prof.enable()
    try:
        yield
    finally:
        prof.disable()
        buf = io.StringIO()
        pstats.Stats(prof, stream=buf).sort_stats(
            "cumulative").print_stats(top)
        print(f"--- profile: {label} (top {top} by cumulative time) ---")
        print(buf.getvalue().rstrip())
        print("--- end profile ---")


class CampaignError(RuntimeError):
    """A sweep point failed: the whole campaign fails, loudly.

    Partial tables are never emitted — a figure either reflects every
    point of its sweep or nothing at all.
    """


@dataclass
class CampaignResult:
    """One target's assembled figures, its point count and wall time."""

    target: str
    figures: list[FigureResult]
    n_points: int
    wall_s: float = 0.0


# ------------------------------------------------------------- execution
def default_jobs() -> int:
    """``--jobs auto``: one worker per usable core."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def jobs_arg(text: str) -> int:
    """argparse ``type=`` for ``--jobs``: ``auto`` or an integer >= 1."""
    if text == "auto":
        return default_jobs()
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or an integer >= 1, got {text!r}")
    return int(text)


def _run_point_task(task: tuple) -> tuple:
    """Run one point; never let an exception escape unpaired.

    ``task`` is ``(module, point, quick, seed)``: the target module, or in
    a pool worker its name, which the worker imports.  Returns
    ("ok", value) or ("err", description) so the caller can name the
    exact failing point instead of surfacing a bare traceback.  Both
    lanes — inline and pool worker — run every point through here.
    """
    module, point, quick, seed = task
    set_campaign_seed(seed)
    try:
        if isinstance(module, str):
            module = importlib.import_module(module)
        return "ok", module.run_point(point, quick)
    except Exception as exc:  # noqa: BLE001 - reported as campaign failure
        return "err", f"{type(exc).__name__}: {exc}"


# -------------------------------------------------------------- the pool
def _worker_main(conn) -> None:
    """Pool worker: run one task per message until told to exit (None).

    The child inherits the parent's imported modules (fork start
    method), so each target module's import cost is paid at most once
    per worker per invocation.
    """
    try:
        while (task := conn.recv()) is not None:
            conn.send(_run_point_task(task))
    except (EOFError, OSError):  # parent went away
        pass
    conn.close()


class WorkerPool:
    """Persistent worker pool for point campaigns.

    ``jobs`` workers are forked at construction and reused for every
    :meth:`map`, so one pool can serve every campaign of a CLI run.  Use
    as a context manager, or call :meth:`close`; a crashed worker or a
    KeyboardInterrupt tears the pool down with :meth:`terminate`.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        self._closed = False
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        #: (process, parent end of its pipe) per worker.
        self._workers: list[tuple] = []
        for _ in range(jobs):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_worker_main, args=(child_conn,),
                               daemon=True)
            proc.start()
            child_conn.close()
            self._workers.append((proc, parent_conn))

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # error/interrupt path: no graceful goodbyes
            self.terminate()

    def close(self) -> None:
        """Graceful shutdown: exit messages, bounded join, then force."""
        if self._closed:
            return
        self._closed = True
        for _proc, conn in self._workers:
            with contextlib.suppress(OSError):
                conn.send(None)
        for proc, _conn in self._workers:
            proc.join(timeout=2.0)
        self.terminate()

    def terminate(self) -> None:
        """Immediate shutdown (crash / KeyboardInterrupt path)."""
        self._closed = True
        for proc, conn in self._workers:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck in syscall
                proc.kill()
                proc.join(timeout=2.0)
            conn.close()

    # -- dispatch ------------------------------------------------------
    def map(self, tasks: list[tuple]) -> list[tuple]:
        """Run every ``(module, point, quick, seed)`` task on the workers.

        Returns the :func:`_run_point_task` outcomes aligned with
        ``tasks``.  Raises :class:`CampaignError` if a worker process
        dies (the error names its point and exitcode), and terminates
        every worker on any error so no orphan processes are left.
        """
        if self._closed:
            raise CampaignError("worker pool is closed")
        outcomes: list[Any] = [None] * len(tasks)
        pending = deque(range(len(tasks)))
        idle = list(self._workers)
        busy: dict = {}  # conn -> (proc, task index)
        try:
            while pending or busy:
                while pending and idle:
                    proc, conn = idle.pop()
                    i = pending.popleft()
                    try:
                        conn.send(tasks[i])
                    except OSError:
                        raise _crash_error(proc, tasks[i])
                    busy[conn] = (proc, i)
                ready = mp_connection.wait(list(busy), timeout=0.25)
                if not ready:  # liveness tick
                    for proc, i in busy.values():
                        if not proc.is_alive():
                            raise _crash_error(proc, tasks[i])
                    continue
                for conn in ready:
                    proc, i = busy.pop(conn)
                    try:
                        outcomes[i] = conn.recv()
                    except (EOFError, OSError):
                        raise _crash_error(proc, tasks[i])
                    idle.append((proc, conn))
        except BaseException:
            # Worker crashes (CampaignError), KeyboardInterrupt, and
            # anything unexpected: never leave orphans behind.
            self.terminate()
            raise
        return outcomes


def _crash_error(proc, task: tuple) -> CampaignError:
    proc.join(timeout=1.0)  # reap, so exitcode is populated
    return CampaignError(
        f"{task[0]}: worker pid {proc.pid} died (exitcode {proc.exitcode}) "
        f"— no tables emitted; in-flight point {json.dumps(task[1])}")


def compute_points(module, points: list[dict], quick: bool = True,
                   seed: int = 0, pool: Optional[WorkerPool] = None,
                   ) -> list[Any]:
    """Compute every point of target ``module``, in canonical order.

    Runs the points on ``pool`` when given (its workers import
    ``module`` by name), else inline.  Results merge back by point
    *index*, so the output order never depends on scheduling, and any
    failed point raises :class:`CampaignError` naming every failure —
    no partial tables.
    """
    module_name = module.__name__
    tasks = [(module_name, point, quick, seed) for point in points]
    if pool is not None:
        outcomes = pool.map(tasks)
    else:
        outcomes = [_run_point_task((module, *task[1:])) for task in tasks]
    failures = [(point, detail)
                for point, (status, detail) in zip(points, outcomes)
                if status != "ok"]
    if failures:
        lines = "\n".join(f"  point {json.dumps(p)}: {d}"
                          for p, d in failures)
        raise CampaignError(
            f"{module_name}: {len(failures)}/{len(points)} points "
            f"failed — no tables emitted:\n{lines}")
    return [value for _status, value in outcomes]


def run_campaign(target: str, quick: bool = True, seed: int = 0,
                 pool: Optional[WorkerPool] = None) -> CampaignResult:
    """Run one bench target as a point campaign and assemble its figures.

    The default computes every point inline under campaign seed 0; pass
    a :class:`WorkerPool` to run them on its workers, and share it to
    keep workers warm across campaigns (``python -m repro.bench all``
    does).
    """
    module = importlib.import_module(TARGETS[target])
    set_campaign_seed(seed)
    t0 = time.perf_counter()
    points = module.points(quick)
    values = compute_points(module, points, quick=quick, seed=seed,
                            pool=pool)
    figures = module.assemble(values, quick)
    if isinstance(figures, FigureResult):
        figures = [figures]
    return CampaignResult(target=target, figures=list(figures),
                          n_points=len(points),
                          wall_s=time.perf_counter() - t0)


# ---------------------------------------------------------------- digest
def figure_outcome(fig: FigureResult) -> dict:
    """A figure's name, x-axis and series: what both this module's
    :func:`figures_digest` and the perf harness's scenario digests
    cover."""
    return {
        "name": fig.name,
        "x": [str(x) for x in fig.x_values],
        "series": {s.label: s.values for s in fig.series},
    }


def figures_digest(figures: list[FigureResult]) -> str:
    """Machine-independent SHA-256 over the figures' x-axes and series."""
    blob = json.dumps([figure_outcome(fig) for fig in figures],
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()
