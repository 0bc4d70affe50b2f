"""The worker pool: crash containment, interrupt teardown, pool reuse,
and the perf gate's speedup floor.

Contract under test (docs/PERFORMANCE.md, "Parallel campaigns"): the
pool is a pure wall-clock optimization — worker count may never change
a merged table — and it fails *loudly*: a dead worker
names its in-flight point instead of hanging, and a KeyboardInterrupt
leaves no orphan processes behind.
"""

from __future__ import annotations

import os
import sys
import types

import pytest

from repro.bench import parallel
from repro.bench.perf import harness
from repro.bench.parallel import (CampaignError, WorkerPool,
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


def _tasks(mod) -> list[tuple]:
    return [(mod.__name__, point, True, 0) for point in mod.points()]


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
        with pytest.raises(CampaignError) as err, WorkerPool(2) as pool:
            compute_points(mod, mod.points(), quick=True, pool=pool)
        msg = str(err.value)
        assert "died" in msg
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
        procs = [proc for proc, _conn in pool._workers]
        with pytest.raises(CampaignError):
            pool.map(_tasks(mod))
        assert all(not p.is_alive() for p in procs)
        with pytest.raises(CampaignError, match="closed"):
            pool.map(_tasks(mod)[:1])
    finally:
        del sys.modules[name]


def test_keyboard_interrupt_leaves_no_orphan_processes(monkeypatch):
    name = "tests._slow_points"
    mod = _install_module(name, 4, lambda point, quick=True: point["i"])
    try:
        pool = WorkerPool(2)
        procs = [proc for proc, _conn in pool._workers]
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
            pool.map(_tasks(mod))
        assert all(not p.is_alive() for p in procs)
    finally:
        del sys.modules[name]


# ------------------------------------------------------- pool lifecycle
def test_pool_reuse_across_campaigns():
    serial = run_campaign("table2", quick=True)
    with WorkerPool(2) as pool:
        procs = [proc for proc, _conn in pool._workers]
        r1 = run_campaign("table2", quick=True, pool=pool)
        r2 = run_campaign("table3", quick=True, pool=pool)
        assert r1.n_points > 0 and r2.n_points > 0
        assert all(p.is_alive() for p in procs)  # same workers, both runs
    assert all(not p.is_alive() for p in procs)
    assert figures_digest(r1.figures) == figures_digest(serial.figures)


def test_pool_close_is_idempotent_and_kills_workers():
    pool = WorkerPool(2)
    procs = [proc for proc, _conn in pool._workers]
    assert all(p.is_alive() for p in procs)
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
    """CI-safe floor: with 2 real cores the pool must beat serial
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
        serial = compute_points(mod, mod.points(), quick=True)
        t_serial = time.perf_counter() - t0
        with WorkerPool(2) as pool:
            t0 = time.perf_counter()
            outcomes = pool.map(_tasks(mod))
            t_pooled = time.perf_counter() - t0
        assert [value for _status, value in outcomes] == serial
        assert t_serial / t_pooled >= 1.1, \
            f"pool {t_serial / t_pooled:.2f}x on {CORES} cores"
    finally:
        del sys.modules[name]
