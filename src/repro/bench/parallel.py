"""Parallel sweep campaigns: a persistent warm worker pool + point cache.

Every bench target builds a **fresh rig per sweep point** (see
:mod:`repro.bench.runner`), which makes points embarrassingly parallel:
the unit of parallelism is the *configuration*, exactly as in the paper's
per-configuration measurement protocol.  This module decomposes a
target's sweep into independent point tasks, fans them out over a
:class:`WorkerPool`, and merges results back in **canonical sweep
order**, so the assembled :class:`~repro.bench.report.FigureResult`
tables — and the perf harness's SHA-256 schedule digests — are
bit-identical to a serial run.

Target-module contract (duck-typed; every ``fig*``/``ext*``/``table*``
module implements it):

``points(quick) -> list[dict]``
    The sweep decomposed into JSON-serializable point descriptors in
    canonical order.  A point is self-contained: together with ``quick``
    and the campaign seed it fully determines one measurement.  It must
    also be **process-deterministic** — workers rebuild the list from
    ``(module, quick)`` and cross-check its digest against the parent's.

``run_point(point, quick) -> value``
    Runs one point on a fresh rig and returns a JSON-native value
    (float / int / str / bool / list / dict-with-str-keys).  Pure: no
    reads of module state mutated by other points.

``assemble(values, quick) -> FigureResult | list[FigureResult]``
    Zips the per-point values (aligned with ``points(quick)``) back into
    the target's figure panel(s), including the paper-anchor checks.

The serial path (``module.run(...)``) iterates the same
``points``/``run_point`` pair inline; the parallel path only changes
*where* each point executes, never what it computes — that is the whole
determinism contract (docs/PERFORMANCE.md, "Parallel campaigns").

**The warm pool.**  Workers are forked **once per invocation** (one pool
serves every campaign of a ``repro-bench all`` run), import ``repro``
and build each target module exactly once, then serve many points over
lightweight pipes.  The wire protocol is compact JSON, not pickled
objects: the parent sends ``(module, quick, seed, point-indices,
points-digest)`` down and workers send packed result rows back.  Points
are batched into chunks sized from a **measured per-point cost probe**
(the first round runs chunk=1 and times it; cheap targets then get
large chunks, expensive ones stay at chunk=1 for load balance).  When a
cache directory is configured the content-addressed store is consulted
**worker-side**, so warm points never cross the pipe at all — the
worker returns only the 64-hex cache key and the parent loads the value
locally.  A crashed worker is detected (never hung on) and fails the
campaign with a :class:`CampaignError` naming its in-flight points;
KeyboardInterrupt tears the whole pool down without orphan processes.

**Point cache.**  Results are content-addressed: the key digests the
point descriptor, quick mode, campaign seed, the default
:class:`~repro.hw.HardwareParams` fingerprint, the target module's own
source bytes, and the package version.  Re-running ``repro-bench all``
after editing one figure module or one hardware constant therefore only
recomputes the invalidated points; everything else is a cache hit.
Corrupted or truncated entries fall back to recompute and are rewritten.

CLI (used by ``make perf-quick`` as the merge-determinism smoke check)::

    python -m repro.bench.parallel <target> [--jobs N] [--full]
        [--chunk N] [--seed N] [--cache-stats] [--cache-dir DIR]

runs the target's sweep serially and through the warm pool and fails
loudly on any digest difference between the two merges.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import multiprocessing
import os
import sys
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Optional

from repro import HardwareParams, __version__
from repro.bench import TARGETS
from repro.bench.report import FigureResult
from repro.bench.runner import set_campaign_seed

__all__ = [
    "CampaignError",
    "CampaignResult",
    "PointCache",
    "WorkerPool",
    "compute_points",
    "default_jobs",
    "figures_digest",
    "normalize",
    "point_capable",
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

#: Chunk-sizing target: batch cheap points until a chunk costs roughly
#: this much wall time.  Expensive points (>= the target on their own)
#: stay at chunk=1, preserving load balance across workers.
CHUNK_TARGET_S = 0.25

#: Upper bound on the adaptive chunk size (keeps the crash blast radius
#: and the per-chunk result payload bounded).
MAX_CHUNK = 64


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
    #: Warm-pool accounting (zero on the inline/serial path).
    warm_start_ms: float = 0.0
    ipc_bytes_per_point: float = 0.0

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
    """Round-trip a point value through JSON.

    Forces computed and cached values onto identical types (tuples become
    lists, dict keys become strings); floats survive exactly — ``repr``
    round-trips every finite double bit-for-bit.
    """
    return json.loads(json.dumps(value))


def _hw_fingerprint() -> str:
    """Digest of the default frozen HardwareParams (the calibration)."""
    import dataclasses
    p = HardwareParams()
    blob = json.dumps(dataclasses.asdict(p), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


_MODULE_SRC_DIGESTS: dict[str, str] = {}


def _module_src_digest(module_name: str) -> str:
    """Digest of the target module's source file — editing one figure
    module invalidates exactly that figure's cached points."""
    cached = _MODULE_SRC_DIGESTS.get(module_name)
    if cached is not None:
        return cached
    spec = importlib.util.find_spec(module_name)
    if spec is None or not spec.origin or not os.path.isfile(spec.origin):
        digest = "no-source"
    else:
        with open(spec.origin, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    _MODULE_SRC_DIGESTS[module_name] = digest
    return digest


def point_key(module_name: str, point: dict, quick: bool, seed: int) -> str:
    """Content address of one sweep point's result."""
    blob = json.dumps({
        "module": module_name,
        "module_src": _module_src_digest(module_name),
        "point": point,
        "quick": bool(quick),
        "seed": int(seed),
        "hw": _hw_fingerprint(),
        "version": __version__,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _points_digest(points: list) -> str:
    """Digest of the canonical point list — the worker-side guard that
    ``points(quick)`` builds the same sweep in every process."""
    blob = json.dumps(points, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------- cache
class PointCache:
    """Content-addressed store of point results under one directory.

    Layout: ``<root>/<key[:2]>/<key>.json`` holding the key, a
    human-readable provenance block, and the value.  Writes go through a
    temp file + ``os.replace`` so a crashed campaign never leaves a
    half-written entry; reads treat *anything* unexpected (bad JSON,
    foreign key, missing field) as a miss and recompute.

    Both the campaign parent and the warm-pool workers open the same
    root: workers probe (and repair) it so warm values never ride the
    result pipe; the parent then loads hit values with :meth:`load`,
    which bypasses the hit/miss counters — the probe already counted.
    """

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def _read(self, key: str) -> tuple[bool, Any, int]:
        try:
            with open(self._path(key)) as fh:
                blob = fh.read()
            data = json.loads(blob)
            if not isinstance(data, dict) or data.get("key") != key \
                    or "value" not in data:
                raise ValueError("foreign or truncated cache entry")
            return True, data["value"], len(blob)
        except (OSError, ValueError):
            return False, None, 0

    def get(self, key: str) -> tuple[bool, Any]:
        """(hit, value); corrupted entries are misses, never errors."""
        ok, value, nbytes = self._read(key)
        if ok:
            self.hits += 1
            self.bytes_read += nbytes
        else:
            self.misses += 1
        return ok, value

    def load(self, key: str) -> tuple[bool, Any]:
        """Counter-free read: fetch a value a *worker* already probed."""
        ok, value, _ = self._read(key)
        return ok, value

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
def point_capable(module) -> bool:
    """Does this target module implement the points contract?"""
    return all(hasattr(module, a) for a in ("points", "run_point",
                                            "assemble"))


def default_jobs() -> int:
    """``--jobs auto``: one worker per usable core."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _run_point_task(task: tuple) -> tuple:
    """Inline lane: run one point; never let an exception escape unpaired.

    Returns ("ok", value) or ("err", description) so the caller can name
    the exact failing point instead of surfacing a bare traceback.
    """
    module_name, point, quick, seed = task
    set_campaign_seed(seed)
    try:
        module = importlib.import_module(module_name)
        return "ok", normalize(module.run_point(point, quick))
    except Exception as exc:  # noqa: BLE001 - reported as campaign failure
        return "err", f"{type(exc).__name__}: {exc}"


# ------------------------------------------------------- the warm pool
def _send_json(conn, msg: dict) -> int:
    raw = json.dumps(msg).encode()
    conn.send_bytes(raw)
    return len(raw)


def _recv_json(conn) -> tuple[dict, int]:
    raw = conn.recv_bytes()
    return json.loads(raw.decode()), len(raw)


def _serve_chunk(msg: dict, cache: Optional[PointCache],
                 memo: dict) -> dict:
    """Worker-side chunk execution (runs inside the forked child)."""
    module_name = msg["module"]
    quick, seed = msg["quick"], msg["seed"]
    try:
        set_campaign_seed(seed)
        module = importlib.import_module(module_name)
        mkey = (module_name, quick, seed)
        if mkey not in memo:
            pts = module.points(quick)
            memo[mkey] = (pts, _points_digest(pts))
        pts, digest = memo[mkey]
        if digest != msg["points_digest"]:
            return {"op": "fatal", "detail": (
                f"{module_name}.points(quick={quick}) is not deterministic "
                f"across processes: worker digest {digest[:12]} != parent "
                f"{msg['points_digest'][:12]}")}
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        return {"op": "fatal", "detail": f"{type(exc).__name__}: {exc}"}

    hits0 = cache.hits if cache else 0
    read0 = cache.bytes_read if cache else 0
    written0 = cache.bytes_written if cache else 0
    results: list[list] = []
    for i in msg["indices"]:
        point = pts[i]
        key = None
        if cache is not None:
            key = point_key(module_name, point, quick, seed)
            hit, _value = cache.get(key)
            if hit:
                # Warm point: only the 64-hex key crosses the pipe; the
                # parent loads the value from the shared cache root.
                results.append([i, "k", key])
                continue
        try:
            value = normalize(module.run_point(point, quick))
        except Exception as exc:  # noqa: BLE001 - named per point
            results.append([i, "e", f"{type(exc).__name__}: {exc}"])
            continue
        if cache is not None:
            cache.put(key, value,
                      meta={"module": module_name, "point": point,
                            "quick": quick, "seed": seed,
                            "version": __version__})
        results.append([i, "v", value])
    reply = {"op": "done", "results": results}
    if cache is not None:
        reply["cache"] = {
            "hits": cache.hits - hits0,
            "misses": len(msg["indices"]) - (cache.hits - hits0),
            "bytes_read": cache.bytes_read - read0,
            "bytes_written": cache.bytes_written - written0,
        }
    return reply


def _worker_main(conn, cache_dir: Optional[str]) -> None:
    """Warm-worker entry point: serve chunks until told to exit.

    The child inherits the parent's imported modules (fork start
    method), so each target module's import cost is paid at most once
    per worker per invocation — not once per point as with a
    fork-per-campaign pool.
    """
    cache = PointCache(cache_dir) if cache_dir else None
    memo: dict = {}
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            break
        msg = json.loads(raw.decode())
        op = msg.get("op")
        if op == "exit":
            break
        if op == "ping":
            reply: dict = {"op": "pong", "pid": os.getpid()}
        else:
            reply = _serve_chunk(msg, cache, memo)
        try:
            conn.send_bytes(json.dumps(reply).encode())
        except (BrokenPipeError, OSError):  # parent went away
            break
    conn.close()


class _PoolWorker:
    __slots__ = ("wid", "proc", "conn")

    def __init__(self, wid, proc, conn):
        self.wid, self.proc, self.conn = wid, proc, conn


class WorkerPool:
    """Persistent warm worker pool for point campaigns.

    Workers are forked once (at construction) and reused for every
    chunk of every campaign dispatched through :meth:`map_points` — the
    pool is meant to be created once per CLI invocation and shared
    across targets (``repro-bench all`` does exactly that).  Use as a
    context manager, or call :meth:`close` explicitly; a crashed worker
    or a KeyboardInterrupt tears the pool down with ``terminate`` so no
    orphan processes survive the campaign.

    ``cache_dir`` routes each worker's cache probes at the shared
    content-addressed store; ``chunk`` pins the chunk size (``None`` =
    adaptive sizing from the measured per-point cost).
    """

    def __init__(self, jobs: int, cache_dir: Optional[str] = None,
                 chunk: Optional[int] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.chunk_override = chunk
        self.ipc_bytes_sent = 0
        self.ipc_bytes_received = 0
        self.points_served = 0
        self.chunks_served = 0
        self.last_chunk_size = 1
        self._closed = False
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        t0 = time.perf_counter()
        self._workers: list[_PoolWorker] = []
        for wid in range(jobs):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_worker_main,
                               args=(child_conn, cache_dir), daemon=True)
            proc.start()
            child_conn.close()
            self._workers.append(_PoolWorker(wid, proc, parent_conn))
        # Handshake: the pool counts as warm only once every worker
        # answers, so warm_start_ms covers fork + import readiness.
        for w in self._workers:
            _send_json(w.conn, {"op": "ping"})
        for w in self._workers:
            msg, _ = _recv_json(w.conn)
            if msg.get("op") != "pong":  # pragma: no cover - paranoia
                raise CampaignError(f"worker {w.wid} failed its handshake")
        self.warm_start_ms = (time.perf_counter() - t0) * 1000.0

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # error/interrupt path: no graceful goodbyes
            self.terminate()

    @property
    def alive(self) -> bool:
        return (not self._closed
                and all(w.proc.is_alive() for w in self._workers))

    @property
    def ipc_bytes_per_point(self) -> float:
        if not self.points_served:
            return 0.0
        return ((self.ipc_bytes_sent + self.ipc_bytes_received)
                / self.points_served)

    def close(self) -> None:
        """Graceful shutdown: exit messages, bounded join, then force."""
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            try:
                _send_json(w.conn, {"op": "exit"})
            except (BrokenPipeError, OSError):
                pass
        for w in self._workers:
            w.proc.join(timeout=2.0)
        self._force_kill()

    def terminate(self) -> None:
        """Immediate shutdown (crash / KeyboardInterrupt path)."""
        self._closed = True
        self._force_kill()

    def _force_kill(self) -> None:
        for w in self._workers:
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=2.0)
            if w.proc.is_alive():  # pragma: no cover - stuck in syscall
                w.proc.kill()
                w.proc.join(timeout=2.0)
            try:
                w.conn.close()
            except OSError:  # pragma: no cover
                pass

    # -- dispatch ------------------------------------------------------
    def _next_chunk_size(self, probe_samples: list[float],
                         remaining: int) -> int:
        """Adaptive chunk sizing from the probe round's measured cost.

        Cheap points are batched until a chunk costs ~``CHUNK_TARGET_S``;
        points at or above the target stay chunk=1 so one slow point
        never serializes a whole batch behind it.  The size is also
        capped so every worker still sees several chunks (load balance)
        and by :data:`MAX_CHUNK` (bounded crash blast radius).
        """
        if self.chunk_override is not None:
            return max(1, self.chunk_override)
        if not probe_samples:
            return 1
        ordered = sorted(probe_samples)
        per_point = ordered[len(ordered) // 2]  # median
        if per_point <= 0:
            return MAX_CHUNK
        size = int(CHUNK_TARGET_S / per_point)
        fair_share = max(1, remaining // (2 * self.jobs))
        return max(1, min(size, fair_share, MAX_CHUNK))

    def map_points(self, module_name: str, points: list, indices: list[int],
                   quick: bool, seed: int) -> tuple[dict, dict]:
        """Fan the indexed points out over the warm workers.

        Returns ``(outcomes, cache_stats)`` where ``outcomes`` maps point
        index -> ("v", value) | ("k", key) | ("e", detail).  Raises
        :class:`CampaignError` if a worker process dies mid-chunk (the
        error names the in-flight points) and tears the pool down on any
        error so no orphan processes are left behind.
        """
        if self._closed:
            raise CampaignError("worker pool is closed")
        try:
            return self._dispatch(module_name, points, indices, quick, seed)
        except BaseException:
            # Covers worker crashes (CampaignError), KeyboardInterrupt,
            # and anything unexpected: never leave orphans behind.
            self.terminate()
            raise

    def _dispatch(self, module_name: str, points: list, indices: list[int],
                  quick: bool, seed: int) -> tuple[dict, dict]:
        pts_digest = _points_digest(points)
        pending = deque(indices)
        outcomes: dict[int, tuple] = {}
        cache_stats = {"hits": 0, "misses": 0,
                       "bytes_read": 0, "bytes_written": 0}
        busy: dict[int, tuple[list[int], float]] = {}
        idle: list[_PoolWorker] = list(self._workers)
        by_conn = {w.conn: w for w in self._workers}
        probe_samples: list[float] = []
        # Probe round: the first |jobs| chunks run at chunk=1 and time
        # the per-point cost; later rounds batch accordingly.
        chunk_size = self.chunk_override or 1
        probing = self.chunk_override is None

        while pending or busy:
            while pending and idle:
                w = idle.pop()
                take = [pending.popleft()
                        for _ in range(min(chunk_size, len(pending)))]
                self.ipc_bytes_sent += _send_json(w.conn, {
                    "op": "task", "module": module_name, "quick": quick,
                    "seed": seed, "indices": take,
                    "points_digest": pts_digest})
                busy[w.wid] = (take, time.perf_counter())
                self.last_chunk_size = len(take)
            ready = mp_connection.wait(
                [w.conn for w in self._workers if w.wid in busy],
                timeout=0.25)
            if not ready:
                self._check_liveness(points, busy)
                continue
            for conn in ready:
                w = by_conn[conn]
                take, t_sent = busy[w.wid]
                try:
                    msg, nbytes = _recv_json(conn)
                except (EOFError, OSError):
                    raise self._crash_error(w, points, take)
                self.ipc_bytes_received += nbytes
                if msg.get("op") == "fatal":
                    raise CampaignError(
                        f"{module_name}: worker {w.wid} failed a chunk — "
                        f"no tables emitted:\n  {msg['detail']}")
                for i, kind, payload in msg["results"]:
                    outcomes[i] = (kind, payload)
                for field_ in cache_stats:
                    cache_stats[field_] += msg.get("cache", {}).get(field_, 0)
                self.points_served += len(take)
                self.chunks_served += 1
                if probing:
                    elapsed = time.perf_counter() - t_sent
                    probe_samples.append(elapsed / max(1, len(take)))
                del busy[w.wid]
                idle.append(w)
            if probing and len(probe_samples) >= min(self.jobs,
                                                     len(indices)):
                chunk_size = self._next_chunk_size(probe_samples,
                                                   len(pending))
                probing = False
        return outcomes, cache_stats

    def _check_liveness(self, points: list, busy: dict) -> None:
        by_wid = {w.wid: w for w in self._workers}
        for wid, (take, _t) in busy.items():
            w = by_wid[wid]
            if not w.proc.is_alive():
                raise self._crash_error(w, points, take)

    def _crash_error(self, w: _PoolWorker, points: list,
                     take: list[int]) -> CampaignError:
        named = "\n".join(f"  point {json.dumps(points[i])}" for i in take)
        w.proc.join(timeout=1.0)  # reap, so exitcode is populated
        code = w.proc.exitcode
        return CampaignError(
            f"worker {w.wid} (pid {w.proc.pid}) died mid-chunk "
            f"(exitcode {code}) — no tables emitted; in-flight points:\n"
            f"{named}")


def _compute_points_pooled(module_name: str, points: list, quick: bool,
                           seed: int, cache: Optional[PointCache],
                           pool: WorkerPool) -> tuple[list, int, int]:
    """Warm-pool lane of :func:`compute_points`.

    All cache traffic is worker-side; the parent only resolves "k"
    (warm) outcomes into values via counter-free :meth:`PointCache.load`
    reads.  A hit that vanished between the worker's probe and the
    parent's load (cache wiped mid-run) is recomputed inline — results
    are never allowed to silently go missing.
    """
    n = len(points)
    indices = list(range(n))
    outcomes, cache_stats = pool.map_points(module_name, points, indices,
                                            quick, seed)
    values: list[Any] = [None] * n
    failures = []
    n_cached = 0
    for i in indices:
        kind, payload = outcomes[i]
        if kind == "v":
            values[i] = payload
        elif kind == "k":
            ok, value = cache.load(payload) if cache else (False, None)
            if ok:
                values[i] = value
                n_cached += 1
            else:  # cache entry vanished since the worker probe
                status, value = _run_point_task(
                    (module_name, points[i], quick, seed))
                if status != "ok":
                    failures.append((points[i], value))
                    continue
                values[i] = value
        else:
            failures.append((points[i], payload))
    if failures:
        lines = "\n".join(f"  point {json.dumps(p)}: {d}"
                          for p, d in failures)
        raise CampaignError(
            f"{module_name}: {len(failures)}/{n} points failed — no "
            f"tables emitted:\n{lines}")
    if cache is not None:
        cache.hits += cache_stats["hits"]
        cache.misses += cache_stats["misses"]
        cache.bytes_read += cache_stats["bytes_read"]
        cache.bytes_written += cache_stats["bytes_written"]
    return values, n - n_cached, n_cached


def compute_points(module_name: str, points: list[dict], quick: bool = True,
                   jobs: int = 1, seed: int = 0,
                   cache: Optional[PointCache] = None,
                   pool: Optional[WorkerPool] = None,
                   chunk: Optional[int] = None,
                   ) -> tuple[list[Any], int, int]:
    """Compute every point's value, in canonical order.

    Returns ``(values, n_computed, n_cached)``.  With ``jobs > 1`` the
    points run on a :class:`WorkerPool` — the one passed in (shared,
    already warm) or an ephemeral pool forked for this call — with
    worker-side cache probes.  With ``jobs == 1`` points run inline with
    parent-side cache probes.  Either way results are merged back by
    point *index*, so the output order never depends on scheduling, and
    any failed point raises :class:`CampaignError` — no partial tables.
    """
    n = len(points)
    if pool is not None or (jobs > 1 and n > 1):
        if pool is not None:
            # Workers bound their cache root at fork time; a campaign
            # disagreeing with it would silently split the cache.
            want = cache.root if cache else None
            if pool.cache_dir != want:
                raise CampaignError(
                    f"pool cache_dir {pool.cache_dir!r} does not match "
                    f"campaign cache root {want!r} — create the pool "
                    "with the campaign's cache directory")
            return _compute_points_pooled(module_name, points, quick, seed,
                                          cache, pool)
        with WorkerPool(jobs, cache_dir=cache.root if cache else None,
                        chunk=chunk) as ephemeral:
            return _compute_points_pooled(module_name, points, quick, seed,
                                          cache, ephemeral)

    # Inline lane (jobs=1): parent-side cache probes, same task wrapper.
    values: list[Any] = [None] * n
    keys: list[Optional[str]] = [None] * n
    misses: list[int] = []
    if cache is not None:
        for i, point in enumerate(points):
            keys[i] = point_key(module_name, point, quick, seed)
            hit, value = cache.get(keys[i])
            if hit:
                values[i] = value
            else:
                misses.append(i)
    else:
        misses = list(range(n))

    if misses:
        tasks = [(module_name, points[i], quick, seed) for i in misses]
        outcomes = [_run_point_task(t) for t in tasks]
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
            values[i] = value
            if cache is not None:
                cache.put(keys[i], value,
                          meta={"module": module_name, "point": points[i],
                                "quick": quick, "seed": seed,
                                "version": __version__})
    return values, len(misses), n - len(misses)


def run_campaign(target: str, quick: bool = True, jobs: int = 1,
                 cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
                 seed: int = 0, pool: Optional[WorkerPool] = None,
                 chunk: Optional[int] = None) -> CampaignResult:
    """Run one bench target as a point campaign and assemble its figures.

    ``cache_dir=None`` disables the point cache.  ``jobs=1`` computes the
    misses inline (still through the exact same task wrapper the pool
    uses, so serial and parallel campaigns share one code path); pass a
    shared :class:`WorkerPool` via ``pool`` to keep workers warm across
    several campaigns (``repro-bench all`` does).
    """
    module_name = TARGETS[target]
    module = importlib.import_module(module_name)
    if not point_capable(module):
        raise CampaignError(
            f"{target} ({module_name}) does not expose the "
            "points/run_point/assemble contract")
    set_campaign_seed(seed)
    t0 = time.perf_counter()
    points = module.points(quick)
    cache = PointCache(cache_dir) if cache_dir else None
    ipc0 = pool.ipc_bytes_sent + pool.ipc_bytes_received if pool else 0
    served0 = pool.points_served if pool else 0
    values, n_computed, n_cached = compute_points(
        module_name, points, quick=quick, jobs=jobs, seed=seed,
        cache=cache, pool=pool, chunk=chunk)
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
    if pool is not None:
        result.warm_start_ms = pool.warm_start_ms
        served = pool.points_served - served0
        if served:
            ipc = (pool.ipc_bytes_sent + pool.ipc_bytes_received) - ipc0
            result.ipc_bytes_per_point = ipc / served
    return result


# ---------------------------------------------------------------- digest
def figures_digest(figures: list[FigureResult]) -> str:
    """Machine-independent SHA-256 over the figures' x-axes and series —
    the same content the perf harness digests per scenario."""
    blob = json.dumps([{
        "name": fig.name,
        "x": [str(x) for x in fig.x_values],
        "series": {s.label: s.values for s in fig.series},
    } for fig in figures], sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ------------------------------------------------------------------- CLI
def main(argv: Optional[list[str]] = None) -> int:
    """Merge-determinism self-check: serial vs warm-pool digest of a
    target, with an optional cache cross-check."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.parallel",
        description="run one bench target serially and through the warm "
                    "worker pool; fail on any digest difference between "
                    "the merged tables (the campaign determinism "
                    "contract, docs/PERFORMANCE.md)")
    parser.add_argument("target", choices=sorted(TARGETS),
                        help="bench target to cross-check (any sweep "
                             "module exposing points/run_point/assemble)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the pooled run "
                             "(default 2)")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full sweep ranges instead "
                             "of the trimmed quick mode")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (0 = the paper default that "
                             "pins the committed digests)")
    parser.add_argument("--chunk", type=int, default=None, metavar="N",
                        help="pin the pool chunk size (default: adaptive "
                             "sizing from a measured per-point probe)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="point-cache root for --cache-stats runs "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--cache-stats", action="store_true",
                        help="additionally run the campaign through the "
                             "worker-side point cache and report "
                             "hits/misses/bytes")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the serial campaign and print the "
                             "top-20 functions by cumulative time")
    args = parser.parse_args(argv)
    quick = not args.full
    with profiled(f"{args.target} (serial)", enable=args.profile):
        serial = run_campaign(args.target, quick=quick, jobs=1,
                              cache_dir=None, seed=args.seed)
    d_serial = figures_digest(serial.figures)
    with WorkerPool(args.jobs, chunk=args.chunk) as pool:
        pooled = run_campaign(args.target, quick=quick, jobs=args.jobs,
                              cache_dir=None, seed=args.seed, pool=pool)
        pool_line = (f"warm_start {pool.warm_start_ms:.0f} ms, "
                     f"ipc {pool.ipc_bytes_per_point:.0f} B/point, "
                     f"last chunk {pool.last_chunk_size}")
    d_pooled = figures_digest(pooled.figures)
    print(f"{args.target}: {serial.n_points} points; serial {d_serial[:12]} "
          f"({serial.wall_s:.1f}s) vs --jobs {args.jobs} {d_pooled[:12]} "
          f"({pooled.wall_s:.1f}s)")
    print(f"pool: {pool_line}")
    if d_serial != d_pooled:
        print("MERGE-DETERMINISM FAILURE: parallel campaign tables differ "
              "from the serial run")
        return 1
    print("merge determinism ok: tables bit-identical")
    if args.cache_stats:
        cached = run_campaign(args.target, quick=quick, jobs=args.jobs,
                              cache_dir=args.cache_dir, seed=args.seed,
                              chunk=args.chunk)
        if figures_digest(cached.figures) != d_serial:
            print("CACHE FAILURE: cached campaign tables differ from the "
                  "serial run")
            return 1
        print(f"{args.target}: {cached.cache_stats_line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
