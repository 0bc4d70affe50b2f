"""Benchmarks regenerating the application figures (12, 13, 15-19) and the
headline summary."""

import pytest


def test_fig12_hashtable_breakdown(campaign):
    fig, = campaign("fig12")
    basic = fig.get("Basic HashTable").values
    numa = fig.get("+Numa-OPT").values
    r16 = fig.get("+Reorder-OPT (theta=16)").values
    assert 8 < max(basic) < 11                      # ~9 MOPS plateau
    assert 1.05 < numa[-1] / basic[-1] < 1.35       # ~+14%
    assert 1.8 < max(r16) / max(numa) < 4.0         # 1.85-2.70x band
    assert max(r16) > 20                            # ~24.4 MOPS scale


def test_fig13_consolidation_sensitivity(campaign):
    hot, batch = campaign("fig13")
    vals = hot.get("Consolidation-OPT").values
    assert vals == sorted(vals, reverse=True)       # declines as hot shrinks
    assert vals[-1] > 0.4 * vals[0]                 # but gently
    bvals = batch.get("Consolidation-OPT").values
    assert bvals == sorted(bvals)                   # rises with theta
    assert bvals[-1] / bvals[0] < 16                # sub-linearly


def test_fig15_shuffle(campaign):
    fig, = campaign("fig15")
    basic = fig.get("Basic Shuffle").values[-1]
    sgl16 = fig.get("+SGL(Batch=16)").values[-1]
    sp16 = fig.get("+SP(Batch=16)").values[-1]
    assert 3.5 < sgl16 / basic < 7.0                # ~4.8x
    assert 4.0 < sp16 / basic < 8.0                 # ~5.8x
    assert sp16 >= sgl16


def test_fig16_join(campaign):
    fig_a, fig_b = campaign("fig16")
    t4 = fig_a.get("theta=4").values
    no_numa = fig_a.get("(no NUMA) theta=4").values
    assert t4[-1] < 0.5 * t4[0]                     # batching helps a lot
    assert all(a <= b for a, b in zip(t4, no_numa))  # NUMA never hurts
    l16 = fig_b.get("lambda=16").values
    assert all(b >= a for a, b in zip(l16, l16[1:]))  # more executors help
    ideal = fig_b.get("ideal").values
    assert l16[-1] < ideal[-1]                      # sub-linear


def test_fig17_join_scale(campaign):
    fig, = campaign("fig17")
    single = fig.get("Single Machine").values[-1]
    naive = fig.get("theta=4, lambda=1 w/o NUMA").values[-1]
    best = fig.get("theta=16, lambda=16").values[-1]
    assert 3.5 < single / best < 8.0                # ~5.3x
    assert 7.0 < naive / best < 14.0                # ~10.3x


def test_fig18_cpu_cost(campaign):
    fig, = campaign("fig18")
    sp = fig.get("SP").values
    sgl = fig.get("SGL").values
    assert sgl[-1] < 0.35 * sp[-1]                  # >=67% CPU saving
    assert sgl[-1] == pytest.approx(sgl[0], rel=0.05)  # SGL flat
    assert sp[-1] > 5 * sp[0]                       # SP grows with size


def test_fig19_distributed_log(campaign):
    fig, = campaign("fig19")
    aware14 = fig.get("14 TX engines").values
    naive14 = fig.get("14 TX engines (*)").values
    b7 = fig.get("7 TX engines").values
    assert 14 < aware14[-1] < 22                    # ~17.7 MOPS
    assert aware14[-1] > 1.1 * naive14[-1]          # NUMA gain
    assert b7[-1] / b7[0] > 4.5                     # strong batching gain


def test_headline_summary(campaign):
    fig, = campaign("summary")
    speedups = dict(zip(fig.x_values, fig.get("speedup").values))
    assert 2.0 < speedups["hashtable"] < 4.5        # paper 2.7x
    assert 4.0 < speedups["shuffle"] < 8.0          # paper 5.8x
    assert 3.5 < speedups["join"] < 8.0             # paper 5.3x
    assert 4.5 < speedups["distributed log"] < 12.0  # paper 9.1x
