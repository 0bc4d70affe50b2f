"""The warm worker pool: crash containment, interrupt teardown, chunking
determinism, worker-side cache reads, IPC accounting, and the perf
gate's speedup floor.

Contract under test (docs/PERFORMANCE.md, "Parallel campaigns"): the
pool is a pure wall-clock optimization — chunk size, worker count, and
cache state may never change a merged table — and it fails *loudly*:
a dead worker names its in-flight points instead of hanging, and a
KeyboardInterrupt leaves no orphan processes behind.
"""

from __future__ import annotations

import os
import sys
import types

import pytest

from repro.bench import parallel
from repro.bench.perf import harness
from repro.bench.parallel import (CampaignError, PointCache, WorkerPool,
                                  compute_points, figures_digest,
                                  run_campaign)
from repro.bench.runner import set_campaign_seed

CORES = parallel.default_jobs()


@pytest.fixture(autouse=True)
def _reset_campaign_seed():
    yield
    set_campaign_seed(0)


def _install_module(name: str, n_points: int, run_point):
    """Register a fake sweep module; forked workers inherit it."""
    mod = types.ModuleType(name)
    mod.points = lambda quick=True: [{"i": i} for i in range(n_points)]
    mod.run_point = run_point
    mod.assemble = lambda values, quick=True: values
    sys.modules[name] = mod
    return mod


# ------------------------------------------------------- crash handling
def test_worker_crash_mid_chunk_names_the_point_and_does_not_hang():
    """A worker dying outright (os._exit, the un-catchable kind) must
    surface as a CampaignError naming the in-flight point."""
    name = "tests._dying_points"

    def run_point(point, quick=True):
        if point["i"] == 1:
            os._exit(13)
        return point["i"]

    mod = _install_module(name, 4, run_point)
    try:
        with pytest.raises(CampaignError) as err:
            compute_points(name, mod.points(), quick=True, jobs=2)
        msg = str(err.value)
        assert "died mid-chunk" in msg
        assert '"i": 1' in msg          # the in-flight point is named
        assert "exitcode 13" in msg
    finally:
        del sys.modules[name]


def test_crash_tears_the_pool_down_no_orphans():
    name = "tests._dying_points2"

    def run_point(point, quick=True):
        if point["i"] == 0:
            os._exit(7)
        return point["i"]

    mod = _install_module(name, 3, run_point)
    try:
        pool = WorkerPool(2)
        procs = [w.proc for w in pool._workers]
        with pytest.raises(CampaignError):
            pool.map_points(name, mod.points(), [0, 1, 2], True, 0)
        assert all(not p.is_alive() for p in procs)
        with pytest.raises(CampaignError, match="closed"):
            pool.map_points(name, mod.points(), [0], True, 0)
    finally:
        del sys.modules[name]


def test_keyboard_interrupt_leaves_no_orphan_processes(monkeypatch):
    name = "tests._slow_points"
    mod = _install_module(name, 4, lambda point, quick=True: point["i"])
    try:
        pool = WorkerPool(2)
        procs = [w.proc for w in pool._workers]
        assert all(p.is_alive() for p in procs)

        # One-shot, like a real Ctrl-C: proc.join() also routes through
        # mp_connection.wait, so later calls must delegate for teardown.
        real_wait = parallel.mp_connection.wait
        fired = []

        def interrupted(*args, **kwargs):
            if not fired:
                fired.append(True)
                raise KeyboardInterrupt
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(parallel.mp_connection, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            pool.map_points(name, mod.points(), [0, 1, 2, 3], True, 0)
        assert all(not p.is_alive() for p in procs)
    finally:
        del sys.modules[name]


def test_nondeterministic_points_are_rejected():
    """Workers rebuild points(quick) and cross-check the parent digest —
    a module whose sweep differs across processes must fail loudly."""
    name = "tests._pid_points"
    mod = _install_module(name, 2, lambda point, quick=True: 0)
    mod.points = lambda quick=True: [{"pid": os.getpid(), "i": i}
                                     for i in range(2)]
    try:
        with pytest.raises(CampaignError, match="not deterministic"):
            compute_points(name, mod.points(), quick=True, jobs=2)
    finally:
        del sys.modules[name]


# -------------------------------------------------- chunking determinism
def test_chunked_and_chunk1_values_are_identical():
    name = "tests._chunky_points"
    mod = _install_module(name, 12,
                          lambda point, quick=True: point["i"] * 1.5)
    try:
        by_chunk = {}
        for chunk in (1, 4, None):  # None = adaptive probe sizing
            values, n_computed, n_cached = compute_points(
                mod.__name__, mod.points(), quick=True, jobs=2, chunk=chunk)
            assert (n_computed, n_cached) == (12, 0)
            by_chunk[chunk] = values
        assert by_chunk[1] == by_chunk[4] == by_chunk[None] \
            == [i * 1.5 for i in range(12)]
    finally:
        del sys.modules[name]


def test_chunked_real_target_tables_byte_identical():
    serial = run_campaign("table2", quick=True, jobs=1, cache_dir=None)
    chunked = run_campaign("table2", quick=True, jobs=2, cache_dir=None,
                           chunk=2)
    assert figures_digest(serial.figures) == figures_digest(chunked.figures)
    assert serial.figures[0].to_text() == chunked.figures[0].to_text()


def test_adaptive_chunk_sizing_heuristic():
    pool = WorkerPool.__new__(WorkerPool)  # sizing logic only, no fork
    pool.jobs = 4
    pool.chunk_override = None
    # Cheap points batch up, capped by fair share and MAX_CHUNK.
    assert pool._next_chunk_size([0.001], remaining=1000) == \
        min(parallel.MAX_CHUNK, 250, 125)
    # A point at/above the target stays chunk=1 for load balance.
    assert pool._next_chunk_size([parallel.CHUNK_TARGET_S * 2],
                                 remaining=100) == 1
    # Explicit override wins.
    pool.chunk_override = 7
    assert pool._next_chunk_size([0.001], remaining=1000) == 7


# -------------------------------------------------- worker-side caching
def test_warm_pool_rerun_recomputes_zero_points(tmp_path):
    cold = run_campaign("table2", quick=True, jobs=2,
                        cache_dir=str(tmp_path))
    assert cold.n_computed == cold.n_points and cold.n_cached == 0
    assert cold.cache_misses == cold.n_points
    warm = run_campaign("table2", quick=True, jobs=2,
                        cache_dir=str(tmp_path))
    assert warm.n_computed == 0 and warm.n_cached == warm.n_points
    assert warm.cache_hits == warm.n_points
    assert warm.cache_bytes_written == 0
    assert figures_digest(warm.figures) == figures_digest(cold.figures)


def test_pool_campaign_cache_root_mismatch_is_rejected(tmp_path):
    with WorkerPool(2, cache_dir=None) as pool:
        with pytest.raises(CampaignError, match="cache"):
            run_campaign("table2", quick=True, jobs=2,
                         cache_dir=str(tmp_path), pool=pool)


def test_vanished_cache_entry_is_recomputed_inline(tmp_path, monkeypatch):
    """A hit at worker-probe time that is gone by parent-load time is
    recomputed, never silently dropped."""
    run_campaign("table2", quick=True, jobs=2, cache_dir=str(tmp_path))
    monkeypatch.setattr(PointCache, "load",
                        lambda self, key: (False, None))
    warm = run_campaign("table2", quick=True, jobs=2,
                        cache_dir=str(tmp_path))
    assert warm.n_computed == warm.n_points  # inline recompute path
    serial = run_campaign("table2", quick=True, jobs=1, cache_dir=None)
    assert figures_digest(warm.figures) == figures_digest(serial.figures)


# ------------------------------------------------------- pool lifecycle
def test_pool_reuse_across_campaigns_and_ipc_accounting():
    with WorkerPool(2) as pool:
        r1 = run_campaign("table2", quick=True, jobs=2, cache_dir=None,
                          pool=pool)
        r2 = run_campaign("table3", quick=True, jobs=2, cache_dir=None,
                          pool=pool)
        assert pool.points_served == r1.n_points + r2.n_points
        assert pool.ipc_bytes_sent > 0 and pool.ipc_bytes_received > 0
        assert pool.ipc_bytes_per_point > 0
        assert r1.warm_start_ms == r2.warm_start_ms == pool.warm_start_ms
        assert r1.ipc_bytes_per_point > 0
        # Compact protocol: point indices + packed rows, not pickled rigs.
        assert pool.ipc_bytes_per_point < 2048
    assert not pool.alive


def test_pool_close_is_idempotent_and_kills_workers():
    pool = WorkerPool(2)
    procs = [w.proc for w in pool._workers]
    assert pool.alive and pool.warm_start_ms > 0
    pool.close()
    pool.close()
    assert all(not p.is_alive() for p in procs)


# --------------------------------------------------- the speedup floor
def _metrics_row(speedup, cores):
    return {"scenarios": {"sweep_parallel": {
        "wall_s": 1.0, "events": 10, "events_per_sec": 10,
        "digest": "d" * 64,
        "metrics": {"jobs4_speedup": speedup, "cores": cores},
    }}}


def test_speedup_floor_gates_on_capable_machines():
    base = _metrics_row(2.0, 4)
    slow = _metrics_row(harness.SPEEDUP_FLOOR - 0.3, 4)
    failures = harness.check(base, slow)
    assert any("jobs4_speedup" in f and "floor" in f for f in failures)
    ok = _metrics_row(harness.SPEEDUP_FLOOR + 0.2, 4)
    assert not harness.check(base, ok)


def test_speedup_floor_skipped_below_core_threshold():
    base = _metrics_row(2.0, 4)
    one_core = _metrics_row(0.8, 1)
    assert not harness.check(base, one_core)


@pytest.mark.skipif(CORES < 2, reason=f"needs >= 2 cores, have {CORES}")
def test_two_core_speedup_smoke():
    """CI-safe floor: with 2 real cores the warm pool must beat serial
    by >= 1.1x on CPU-bound points (low floor so CI noise cannot flake)."""
    import time
    name = "tests._busy_points"

    def busy_point(point, quick=True):
        deadline = time.perf_counter() + 0.15
        acc = 0
        while time.perf_counter() < deadline:
            acc += 1
        return point["i"]

    mod = _install_module(name, 8, busy_point)
    try:
        t0 = time.perf_counter()
        serial, _, _ = compute_points(name, mod.points(), quick=True, jobs=1)
        t_serial = time.perf_counter() - t0
        with WorkerPool(2) as pool:
            t0 = time.perf_counter()
            outcomes, _ = pool.map_points(name, mod.points(),
                                          list(range(8)), True, 0)
            t_pooled = time.perf_counter() - t0
        assert [outcomes[i][1] for i in range(8)] == serial
        assert t_serial / t_pooled >= 1.1, \
            f"warm pool {t_serial / t_pooled:.2f}x on {CORES} cores"
    finally:
        del sys.modules[name]
