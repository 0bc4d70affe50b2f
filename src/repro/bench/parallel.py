"""Parallel sweep campaigns: a persistent worker pool + point cache.

Every bench target builds a **fresh rig per sweep point** (see
:mod:`repro.bench.runner`), which makes points embarrassingly parallel:
the unit of parallelism is the *configuration*, exactly as in the paper's
per-configuration measurement protocol.  This module decomposes a
target's sweep into independent point tasks, runs the ones the cache
cannot answer, and merges results back in **canonical sweep order**, so
the assembled :class:`~repro.bench.report.FigureResult` tables — and the
perf harness's SHA-256 schedule digests — are bit-identical to a serial
run.

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

:func:`run_campaign` is the one way to get a target's figures.  With
``jobs=1`` and no cache it runs every point inline, in ``points()``
order; the pool only changes *where* each point executes, never what it
computes — that is the whole determinism contract (docs/PERFORMANCE.md,
"Parallel campaigns").

**One campaign path.**  :func:`compute_points` probes the point cache in
the parent and runs only the misses, inline or on a :class:`WorkerPool`
forked **once per invocation** (one pool serves every campaign of a
``repro-bench all`` run) that takes one point per message.  A worker
that dies fails the campaign with a :class:`CampaignError` naming its
point and exitcode; any error, KeyboardInterrupt included, terminates
every worker so no orphan process survives.

**Point cache.**  Results are content-addressed: the key digests the
target module's name, the point descriptor, quick mode, campaign seed
and every ``repro`` source file.  A hit therefore comes only from an
identical tree: any edit to the package recomputes every point.
Corrupted or truncated entries fall back to recompute and are rewritten.

CLI (used by ``make perf-quick`` as the merge-determinism smoke check)::

    python -m repro.bench.parallel <target> [--jobs N|auto] [--full]
        [--seed N] [--cache-stats] [--cache-dir DIR] [--profile]

runs the target's sweep serially and through the pool and fails loudly
on any digest difference between the two merges.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import json
import multiprocessing
import os
import pathlib
import sys
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Optional

from repro import __version__
from repro.bench import TARGETS
from repro.bench.report import FigureResult
from repro.bench.runner import set_campaign_seed

__all__ = [
    "CampaignError",
    "CampaignResult",
    "PointCache",
    "WorkerPool",
    "build_parser",
    "compute_points",
    "default_jobs",
    "figure_outcome",
    "figures_digest",
    "jobs_arg",
    "normalize",
    "point_key",
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

#: Default on-disk cache location (repo root when invoked via Makefile).
DEFAULT_CACHE_DIR = ".bench-cache"


class CampaignError(RuntimeError):
    """A sweep point failed: the whole campaign fails, loudly.

    Partial tables are never emitted — a figure either reflects every
    point of its sweep or nothing at all.
    """


@dataclass
class CampaignResult:
    """One target's assembled figures plus campaign accounting."""

    target: str
    figures: list[FigureResult]
    n_points: int
    n_computed: int
    n_cached: int
    wall_s: float = 0.0
    #: Point-cache accounting for this campaign (zero when cache is off).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes_read: int = 0
    cache_bytes_written: int = 0

    @property
    def stats_line(self) -> str:
        return (f"{self.n_points} points: {self.n_computed} computed, "
                f"{self.n_cached} cached")

    @property
    def cache_stats_line(self) -> str:
        return (f"cache: {self.cache_hits} hits, {self.cache_misses} misses, "
                f"{self.cache_bytes_read:,} B read, "
                f"{self.cache_bytes_written:,} B written "
                f"({self.n_computed} points recomputed)")


# ------------------------------------------------------------------ keys
def normalize(value: Any) -> Any:
    """Round-trip a point value through JSON, as the point cache stores it.

    A campaign with a cache normalizes every value it computes, so its
    cold and warm runs hand ``assemble`` identical types (tuples become
    lists, dict keys become strings); floats survive exactly — ``repr``
    round-trips every finite double bit-for-bit.  Without a cache,
    ``assemble`` gets what ``run_point`` returned, which the contract
    requires to be JSON-native already.
    """
    return json.loads(json.dumps(value))


@functools.cache
def _tree_digest() -> str:
    """Digest of every ``repro/**/*.py`` file, by relative path and
    bytes in sorted order: a point is a hit only on an identical tree
    (the ``HardwareParams`` defaults included)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    sha = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode() + b"\0")
        sha.update(hashlib.sha256(path.read_bytes()).digest())
    return sha.hexdigest()


def point_key(module_name: str, point: dict, quick: bool, seed: int) -> str:
    """Content address of one sweep point's result."""
    blob = json.dumps({
        "module": module_name,
        "point": point,
        "quick": bool(quick),
        "seed": int(seed),
        "tree": _tree_digest(),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------- cache
class PointCache:
    """Content-addressed store of point results under one directory.

    Layout: ``<root>/<key[:2]>/<key>.json`` holding the key, a
    human-readable provenance block, and the value.  Writes go through a
    temp file + ``os.replace`` so a crashed campaign never leaves a
    half-written entry; reads treat *anything* unexpected (bad JSON,
    foreign key, missing field) as a miss and recompute.  Only the
    campaign parent opens it; workers never touch the store.
    """

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str) -> tuple[bool, Any]:
        """(hit, value); corrupted entries are misses, never errors."""
        try:
            with open(self._path(key)) as fh:
                blob = fh.read()
            data = json.loads(blob)
            if not isinstance(data, dict) or data.get("key") != key \
                    or "value" not in data:
                raise ValueError("foreign or truncated cache entry")
        except (OSError, ValueError):
            self.misses += 1
            return False, None
        self.hits += 1
        self.bytes_read += len(blob)
        return True, data["value"]

    def put(self, key: str, value: Any, meta: Optional[dict] = None) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + f".tmp.{os.getpid()}"
        blob = json.dumps({"key": key, "meta": meta or {}, "value": value})
        with open(tmp, "w") as fh:
            fh.write(blob)
        self.bytes_written += len(blob)
        os.replace(tmp, path)


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
                   jobs: int = 1, seed: int = 0,
                   cache: Optional[PointCache] = None,
                   pool: Optional[WorkerPool] = None,
                   ) -> tuple[list[Any], int, int]:
    """Compute every point of target ``module``, in canonical order.

    Returns ``(values, n_computed, n_cached)``.  The cache is probed
    here, in the calling process; only the misses run — on ``pool`` when
    given, on an ephemeral pool when ``jobs > 1`` and more than one
    point missed, else inline on ``module`` (pool workers import it by
    name).  Results merge back by point *index*, so the output order
    never depends on scheduling, and any failed point raises
    :class:`CampaignError` naming every failure — no partial tables.
    """
    module_name = module.__name__
    n = len(points)
    values: list[Any] = [None] * n
    keys: list[Optional[str]] = [None] * n
    misses: list[int] = []
    for i, point in enumerate(points):
        if cache is not None:
            keys[i] = point_key(module_name, point, quick, seed)
            hit, values[i] = cache.get(keys[i])
            if hit:
                continue
        misses.append(i)

    tasks = [(module_name, points[i], quick, seed) for i in misses]
    if pool is not None:
        outcomes = pool.map(tasks)
    elif jobs > 1 and len(tasks) > 1:
        with WorkerPool(min(jobs, len(tasks))) as ephemeral:
            outcomes = ephemeral.map(tasks)
    else:
        outcomes = [_run_point_task((module, *task[1:])) for task in tasks]

    failures = [(points[i], detail)
                for i, (status, detail) in zip(misses, outcomes)
                if status != "ok"]
    if failures:
        lines = "\n".join(f"  point {json.dumps(p)}: {d}"
                          for p, d in failures)
        raise CampaignError(
            f"{module_name}: {len(failures)}/{len(misses)} points "
            f"failed — no tables emitted:\n{lines}")
    for i, (_status, value) in zip(misses, outcomes):
        if cache is not None:
            value = normalize(value)
            cache.put(keys[i], value,
                      meta={"module": module_name, "point": points[i],
                            "quick": quick, "seed": seed,
                            "version": __version__})
        values[i] = value
    return values, len(misses), n - len(misses)


def run_campaign(target: str, quick: bool = True, jobs: int = 1,
                 cache_dir: Optional[str] = None, seed: int = 0,
                 pool: Optional[WorkerPool] = None) -> CampaignResult:
    """Run one bench target as a point campaign and assemble its figures.

    The default computes every point inline under campaign seed 0.
    ``cache_dir`` names a point-cache directory to read and fill (the
    CLIs pass :data:`DEFAULT_CACHE_DIR`).  ``jobs`` and ``pool`` are as
    in :func:`compute_points`; pass a shared :class:`WorkerPool` to keep
    workers warm across campaigns (``repro-bench all`` does).
    """
    module_name = TARGETS[target]
    module = importlib.import_module(module_name)
    set_campaign_seed(seed)
    t0 = time.perf_counter()
    points = module.points(quick)
    cache = PointCache(cache_dir) if cache_dir else None
    values, n_computed, n_cached = compute_points(
        module, points, quick=quick, jobs=jobs, seed=seed, cache=cache,
        pool=pool)
    figures = module.assemble(values, quick)
    if isinstance(figures, FigureResult):
        figures = [figures]
    result = CampaignResult(target=target, figures=list(figures),
                            n_points=len(points), n_computed=n_computed,
                            n_cached=n_cached,
                            wall_s=time.perf_counter() - t0)
    if cache is not None:
        result.cache_hits = cache.hits
        result.cache_misses = cache.misses
        result.cache_bytes_read = cache.bytes_read
        result.cache_bytes_written = cache.bytes_written
    return result


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


# ------------------------------------------------------------------- CLI
def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.bench.parallel`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.parallel",
        description="run one bench target serially and through the "
                    "worker pool; fail on any digest difference between "
                    "the merged tables (the campaign determinism "
                    "contract, docs/PERFORMANCE.md)")
    parser.add_argument("target", choices=sorted(TARGETS),
                        help="bench target to cross-check")
    parser.add_argument("--jobs", type=jobs_arg, default=2, metavar="N",
                        help="worker processes for the pooled run: an "
                             "integer >= 1 or 'auto' (default 2)")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full sweep ranges")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (0 pins the committed digests)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="point-cache root for --cache-stats runs "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--cache-stats", action="store_true",
                        help="additionally run the campaign through the "
                             "point cache and report hits/misses/bytes")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the serial campaign and print the "
                             "top-20 functions by cumulative time")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Merge-determinism self-check: serial vs pooled digest of a
    target, with an optional cache cross-check."""
    args = build_parser().parse_args(argv)
    quick = not args.full
    with profiled(f"{args.target} (serial)", enable=args.profile):
        serial = run_campaign(args.target, quick=quick, seed=args.seed)
    d_serial = figures_digest(serial.figures)
    with WorkerPool(args.jobs) as pool:
        pooled = run_campaign(args.target, quick=quick, jobs=args.jobs,
                              seed=args.seed, pool=pool)
    d_pooled = figures_digest(pooled.figures)
    print(f"{args.target}: {serial.n_points} points; serial {d_serial[:12]} "
          f"({serial.wall_s:.1f}s) vs --jobs {args.jobs} {d_pooled[:12]} "
          f"({pooled.wall_s:.1f}s)")
    if d_serial != d_pooled:
        print("MERGE-DETERMINISM FAILURE: parallel campaign tables differ "
              "from the serial run")
        return 1
    print("merge determinism ok: tables bit-identical")
    if args.cache_stats:
        cached = run_campaign(args.target, quick=quick, jobs=args.jobs,
                              cache_dir=args.cache_dir, seed=args.seed)
        if figures_digest(cached.figures) != d_serial:
            print("CACHE FAILURE: cached campaign tables differ from the "
                  "serial run")
            return 1
        print(f"{args.target}: {cached.cache_stats_line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
