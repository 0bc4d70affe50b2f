"""Parallel sweep campaigns: serial/pooled equality, the point cache,
seed plumbing, and loud failure on a crashed point.

The contract under test (docs/PERFORMANCE.md, "Parallel campaigns"):
``--jobs N`` must be a pure wall-clock optimization — the merged figure
rows, checks, and rendered text are bit-identical to a serial run, the
cache never changes results (only skips recomputation), and a single
failed point fails the whole campaign with the point named.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import sys
import types

import pytest

from repro.bench import TARGETS
from repro.bench import parallel
from repro.bench.parallel import (CampaignError, PointCache, compute_points,
                                  figures_digest, point_key, run_campaign)
from repro.bench.runner import bench_seed, set_campaign_seed

#: SHA-256 of every target's quick-mode rendered text (its figures'
#: ``to_text()`` joined by newlines).  A deliberate table change
#: re-records these together with ``make perf-update``.
TABLE_DIGESTS = {
    "breakdown":
        "a993cb2fb7cf8f3d7c9d5e894af799e53fd5b888aad393391219bbff9a9dfea9",
    "ext1":
        "4da6e05f1d9ac36891fc9c12c3ac8be19b376c450483af9ccb7ce51d9ec7f5da",
    "ext10_open_loop":
        "c0e83691813aa922b07ddc268f1da47e512daaf876658e6ae4f2f2fa742f8c61",
    "ext2":
        "664710c19fd65f22684c6f90958c8d2c5cfd8fe2066e88ac12f59d23b94d6619",
    "ext3":
        "0d2d786123c741810de9888da4e77c189ed376b5f1cd6c43cc45f824cd6346cf",
    "ext4":
        "b73f0938c6b0f90870fb8d58dca2d8647d2c62216dd3d85878cae548e5b177a8",
    "ext5":
        "bf01a7f0ea801deadf1c3439ac232702a7725367ded9206d118ed1862aceb876",
    "ext6_multitenant":
        "ff122da9612cad69e742c3e2d8a5690c0f98604286c87a11eeb76bc94b957b86",
    "ext7_fault_recovery":
        "c39458779be1616fa42d829d345924b0b90e3db8e7060e6368791570398f7952",
    "ext8_txn":
        "30eb13288d2f901685e1c94f510b0cf47ef2d49ee30ddc85ccf1de2c21d3aa65",
    "ext9_fabric_scale":
        "c343485d8d1f7f6024f6deeff30a2f30adac3f6b46700b408b1db640e4aa43ed",
    "fig1":
        "c51ee46e3c4ab25774a8a2276aa7b81e4780a99990c10895c5e6ce23b8701c4f",
    "fig10":
        "77fec962e3310f670595da3db9b02d49ae51b8b798f52bd3d46c9b5280659a94",
    "fig12":
        "b11d14ea245145c0d84ddd80cd66b70aaf58785b235860a5f51c42aa34e4b8c2",
    "fig13":
        "178476c89cabe9cf969d753b231d3dac86ed2e81a2e4eb52639a371a99d334a8",
    "fig15":
        "62a32882f5ac7a9363be6b22bdaae851c407b75d3ae8cbec2245d40b74359487",
    "fig16":
        "034f6328d1b81b59dabc6feef18b19a70d22f7b3acfd9d623b8027705d2cab96",
    "fig17":
        "22a7c58267f8e0d7a2c3dc44a875303ead799dff40228e19dc59effe590e9e8a",
    "fig18":
        "aa580105a565cf66a16f32a8c42e4c1a6591f787e95fe0c5295a097e3cdc6d7e",
    "fig19":
        "e06206d6d6f1c7e20b22184eaade72b25d5cf08762ccd06038f6060a08632686",
    "fig3":
        "47f292e80d4e69dedcd34a3420f66440685ea9c5f452093e75b129598d52f44c",
    "fig4":
        "aaded64f5645b3f243df5bb829e67244b4134c49751c345de2f8c9c4fa8c27d6",
    "fig5":
        "905b7d65ddc3313986a229c4f1f72c0f72afe3481e67c25996fe1e2f2cc2ad3f",
    "fig6":
        "8e39ca4cb0294118a8747202f5888a34169a7bc0b22365764f6a367a9141ea5d",
    "fig8":
        "83bb7eed9fa843cc8dab0c42c7a3d8576f407685e396bbb1ec30057953643290",
    "scorecard":
        "e0685e3d0f46897f937bc03fbb5e33322a09680ad772951b0d24974ede9c0aa0",
    "summary":
        "066c421ef9a26d5a11976a2b188aedfb90ba493d20dbe31504ad72067aff0b3d",
    "table1":
        "02a97a76653d301f0653c7e0c9f3b85f90301cf786b294585d9272ea937aecd7",
    "table2":
        "c4ecb25b75bee9803da54be2be543d10ebd14e81ebe8baf5359234eb246e6ce6",
    "table3":
        "5d506653c81b5a03ea470cd2bd8c3faac5444d2e2d75aa189b64ed6d1c741566",
}


@pytest.fixture(autouse=True)
def _reset_campaign_seed():
    yield
    set_campaign_seed(0)


# ------------------------------------------------- merge determinism
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_parallel_campaign_matches_serial(target, tmp_path):
    """Every quick-mode target: --jobs 4 rows == --jobs 1 rows, exactly,
    and the rendered text is the pinned one.  The pooled run goes through
    a cold point cache, so the JSON round trip of every value is held to
    the inline values too."""
    serial = run_campaign(target, quick=True, jobs=1)
    pooled = run_campaign(target, quick=True, jobs=4,
                          cache_dir=str(tmp_path))
    assert serial.n_points == pooled.n_points == pooled.n_computed > 0
    assert len(serial.figures) == len(pooled.figures)
    for a, b in zip(serial.figures, pooled.figures):
        assert a.name == b.name
        assert [str(x) for x in a.x_values] == [str(x) for x in b.x_values]
        assert ([(s.label, s.values) for s in a.series]
                == [(s.label, s.values) for s in b.series])
        assert a.checks == b.checks
        assert a.to_text() == b.to_text()
    assert figures_digest(serial.figures) == figures_digest(pooled.figures)
    text = "\n".join(f.to_text() for f in serial.figures)
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[target]


@pytest.mark.parametrize("target", ["table2", "ext5"])
def test_campaign_matches_plain_module_run(target):
    """The campaign path reproduces the module's own contract, composed
    by hand, byte-for-byte."""
    module = importlib.import_module(TARGETS[target])
    set_campaign_seed(0)
    fig = module.assemble([module.run_point(p, True)
                           for p in module.points(True)], True)
    campaign = run_campaign(target, quick=True, jobs=1)
    assert campaign.figures[0].to_text() == fig.to_text()


def test_all_point_targets_are_point_capable():
    """Every target implements points/run_point/assemble and keeps no
    serial run(), run_*(), main() or __main__ block beside it."""
    assert set(TABLE_DIGESTS) == set(TARGETS)
    for name, path in TARGETS.items():
        module = importlib.import_module(path)
        for attr in ("points", "run_point", "assemble"):
            assert callable(getattr(module, attr, None)), (name, attr)
        own = [f for f, obj in vars(module).items()
               if inspect.isfunction(obj) and obj.__module__ == path]
        assert not [f for f in own if f in ("run", "main")
                    or f.startswith("run_") and f != "run_point"], name
        assert "__main__" not in inspect.getsource(module), name


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
    table2 = importlib.import_module("repro.bench.table2_mlc")
    values, n_computed, n_cached = compute_points(
        table2, [{"mem_socket": 0}], cache=PointCache(str(tmp_path)))
    assert (n_computed, n_cached) == (1, 0)
    # ...and repairs the entry for the next run.
    _, n_computed, n_cached = compute_points(
        table2, [{"mem_socket": 0}], cache=PointCache(str(tmp_path)))
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
            compute_points(mod, mod.points(), quick=True, jobs=jobs)
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
