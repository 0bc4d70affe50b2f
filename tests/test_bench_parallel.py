"""Parallel sweep campaigns: serial/pooled equality, the point cache,
seed plumbing, and loud failure on a crashed point.

The contract under test (docs/PERFORMANCE.md, "Parallel campaigns"):
``--jobs N`` must be a pure wall-clock optimization — the merged figure
rows, checks, and rendered text are bit-identical to a serial run, the
cache never changes results (only skips recomputation), and a single
failed point fails the whole campaign with the point named.
"""

from __future__ import annotations

import importlib
import sys
import types

import pytest

from repro.bench import TARGETS, parallel
from repro.bench.parallel import (CampaignError, PointCache, compute_points,
                                  figures_digest, point_key, run_campaign)
from repro.bench.runner import bench_seed, set_campaign_seed

#: Every sweep target (the meta-targets summary/breakdown/scorecard
#: aggregate other modules' runs and stay serial-only).
POINT_TARGETS = sorted(
    name for name in TARGETS
    if parallel.point_capable(importlib.import_module(TARGETS[name])))


@pytest.fixture(autouse=True)
def _reset_campaign_seed():
    yield
    set_campaign_seed(0)


# ------------------------------------------------- merge determinism
@pytest.mark.parametrize("target", POINT_TARGETS)
def test_parallel_campaign_matches_serial(target):
    """Every quick-mode target: --jobs 4 rows == --jobs 1 rows, exactly."""
    serial = run_campaign(target, quick=True, jobs=1, cache_dir=None)
    pooled = run_campaign(target, quick=True, jobs=4, cache_dir=None)
    assert serial.n_points == pooled.n_points > 0
    assert len(serial.figures) == len(pooled.figures)
    for a, b in zip(serial.figures, pooled.figures):
        assert a.name == b.name
        assert [str(x) for x in a.x_values] == [str(x) for x in b.x_values]
        assert ([(s.label, s.values) for s in a.series]
                == [(s.label, s.values) for s in b.series])
        assert a.checks == b.checks
        assert a.to_text() == b.to_text()
    assert figures_digest(serial.figures) == figures_digest(pooled.figures)


@pytest.mark.parametrize("target", ["table2", "ext5"])
def test_campaign_matches_plain_module_run(target):
    """The campaign path reproduces ``module.run`` byte-for-byte."""
    module = importlib.import_module(TARGETS[target])
    set_campaign_seed(0)
    fig = module.run(quick=True)
    campaign = run_campaign(target, quick=True, jobs=1, cache_dir=None)
    assert campaign.figures[0].to_text() == fig.to_text()


def test_all_point_targets_are_point_capable():
    """A sweep module losing points/run_point/assemble must fail CI."""
    assert set(POINT_TARGETS) == set(TARGETS) - {"summary", "breakdown",
                                                 "scorecard"}


def test_meta_targets_refuse_campaigns():
    with pytest.raises(CampaignError):
        run_campaign("summary", quick=True, jobs=1, cache_dir=None)


# ----------------------------------------------------------- the cache
def test_warm_cache_recomputes_nothing(tmp_path):
    cold = run_campaign("table2", quick=True, jobs=1,
                        cache_dir=str(tmp_path))
    assert cold.n_computed == cold.n_points and cold.n_cached == 0
    warm = run_campaign("table2", quick=True, jobs=1,
                        cache_dir=str(tmp_path))
    assert warm.n_computed == 0 and warm.n_cached == warm.n_points
    assert figures_digest(warm.figures) == figures_digest(cold.figures)


def test_point_key_invalidation():
    """The key must move with the point, mode, seed, and module."""
    base = point_key("repro.bench.table2_mlc", {"mem_socket": 0}, True, 0)
    assert base == point_key("repro.bench.table2_mlc", {"mem_socket": 0},
                             True, 0)
    others = [
        point_key("repro.bench.table2_mlc", {"mem_socket": 1}, True, 0),
        point_key("repro.bench.table2_mlc", {"mem_socket": 0}, False, 0),
        point_key("repro.bench.table2_mlc", {"mem_socket": 0}, True, 7),
        point_key("repro.bench.table3_numa", {"mem_socket": 0}, True, 0),
    ]
    assert base not in others
    assert len(set(others)) == len(others)


def test_corrupted_cache_entry_is_a_miss_not_an_error(tmp_path):
    cache = PointCache(str(tmp_path))
    key = point_key("repro.bench.table2_mlc", {"mem_socket": 0}, True, 0)
    cache.put(key, [92.0, 3.7])
    hit, value = cache.get(key)
    assert hit and value == [92.0, 3.7]
    with open(cache._path(key), "w") as fh:
        fh.write("{ definitely not json")
    hit, value = cache.get(key)
    assert not hit and value is None
    # A campaign over the damaged cache silently recomputes the point...
    values, n_computed, n_cached = compute_points(
        "repro.bench.table2_mlc", [{"mem_socket": 0}],
        cache=PointCache(str(tmp_path)))
    assert (n_computed, n_cached) == (1, 0)
    # ...and repairs the entry for the next run.
    _, n_computed, n_cached = compute_points(
        "repro.bench.table2_mlc", [{"mem_socket": 0}],
        cache=PointCache(str(tmp_path)))
    assert (n_computed, n_cached) == (0, 1)


def test_foreign_key_cache_entry_is_a_miss(tmp_path):
    cache = PointCache(str(tmp_path))
    key = point_key("repro.bench.table2_mlc", {"mem_socket": 0}, True, 0)
    other = point_key("repro.bench.table2_mlc", {"mem_socket": 1}, True, 0)
    cache.put(key, [92.0, 3.7])
    import os
    os.makedirs(os.path.dirname(cache._path(other)), exist_ok=True)
    os.replace(cache._path(key), cache._path(other))
    hit, _ = cache.get(other)
    assert not hit


# -------------------------------------------------------- failure mode
_CRASHY = "tests._crashy_points"


def _install_crashy_module():
    """A fake sweep module whose third point always raises.

    Registered in ``sys.modules`` so the fork-based pool workers (which
    inherit the parent's module table) can import it by name.
    """
    mod = types.ModuleType(_CRASHY)

    def points(quick=True):
        return [{"i": i} for i in range(4)]

    def run_point(point, quick=True):
        if point["i"] == 2:
            raise RuntimeError("injected point failure")
        return point["i"] * 10

    def assemble(values, quick=True):
        return values

    mod.points, mod.run_point, mod.assemble = points, run_point, assemble
    sys.modules[_CRASHY] = mod
    return mod


@pytest.mark.parametrize("jobs", [1, 4])
def test_one_failed_point_fails_the_campaign_loudly(jobs):
    mod = _install_crashy_module()
    try:
        with pytest.raises(CampaignError) as err:
            compute_points(_CRASHY, mod.points(), quick=True, jobs=jobs)
        msg = str(err.value)
        assert "injected point failure" in msg
        assert '"i": 2' in msg          # the failing point is named
        assert "no tables emitted" in msg
    finally:
        del sys.modules[_CRASHY]


# -------------------------------------------------------- seed plumbing
def test_campaign_seed_zero_is_the_identity():
    """Seed 0 must leave every module base seed untouched — that is what
    pins the committed digests and the perf-gate schedule hashes."""
    set_campaign_seed(0)
    for base in (0, 5, 7, 11, 17, 100):
        assert bench_seed(base) == base


def test_nonzero_seed_moves_rng_targets_deterministically():
    d0 = figures_digest(
        run_campaign("ext5", quick=True, jobs=1, cache_dir=None,
                     seed=0).figures)
    d7 = figures_digest(
        run_campaign("ext5", quick=True, jobs=1, cache_dir=None,
                     seed=7).figures)
    d7_again = figures_digest(
        run_campaign("ext5", quick=True, jobs=1, cache_dir=None,
                     seed=7).figures)
    assert d0 != d7          # the seed actually reaches the rig rngs
    assert d7 == d7_again    # and stays deterministic per seed


def test_cli_flags_roundtrip(capsys, tmp_path):
    from repro.bench.__main__ import main
    assert main(["table2", "--jobs", "2", "--seed", "5",
                 "--cache", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 computed, 0 cached" in out
    assert main(["table2", "--seed", "5", "--cache", str(tmp_path)]) == 0
    assert "0 computed, 2 cached" in capsys.readouterr().out


@pytest.mark.parametrize("cli", ["repro.bench.__main__",
                                 "repro.bench.parallel"])
@pytest.mark.parametrize("jobs", ["two", "0", "-3"])
def test_bad_jobs_is_a_usage_error(cli, jobs, capsys):
    """--jobs takes 'auto' or an integer >= 1; anything else exits 2
    with a usage error instead of a traceback or a silent serial run."""
    main = importlib.import_module(cli).main
    with pytest.raises(SystemExit) as exc:
        main(["table2", "--jobs", jobs])
    assert exc.value.code == 2
    assert "argument --jobs" in capsys.readouterr().err
    assert parallel.jobs_arg("auto") == parallel.default_jobs()
    assert parallel.jobs_arg("3") == 3


def test_cache_stats_cli_warm_rerun_recomputes_nothing(capsys, tmp_path):
    """--cache-stats: cold run reports misses/writes; a warm rerun must
    report every point as a hit and 0 recomputed."""
    argv = ["table2", "--jobs", "1", "--cache-stats",
            "--cache-dir", str(tmp_path)]
    assert parallel.main(argv) == 0
    out = capsys.readouterr().out
    assert "cache: 0 hits, 2 misses" in out
    assert "(2 points recomputed)" in out
    assert parallel.main(argv) == 0
    out = capsys.readouterr().out
    assert "cache: 2 hits, 0 misses" in out
    assert "0 B written" in out
    assert "(0 points recomputed)" in out


def test_point_cache_byte_counters(tmp_path):
    cache = PointCache(str(tmp_path))
    hit, _ = cache.get("ab" * 32)
    assert not hit and cache.bytes_read == 0
    cache.put("ab" * 32, {"v": 1.5})
    assert cache.bytes_written > 0
    hit, value = cache.get("ab" * 32)
    assert hit and value == {"v": 1.5}
    assert cache.bytes_read == cache.bytes_written
