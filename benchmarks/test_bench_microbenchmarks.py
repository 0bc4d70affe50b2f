"""Benchmarks regenerating the micro-benchmark figures (Figs 1, 3-6, 8)
and asserting their paper-anchored shapes."""

import pytest


def test_fig1_packet_throttling(campaign):
    fig, = campaign("fig1")
    wl = fig.get("write-latency-us").values
    rl = fig.get("read-latency-us").values
    wt = fig.get("write-mops").values
    small = fig.x_values.index(16)
    assert wl[small] == pytest.approx(1.16, rel=0.15)
    assert rl[small] == pytest.approx(2.00, rel=0.15)
    assert wt[small] == pytest.approx(4.7, rel=0.12)
    # Latency flat through 256 B, then rises steeply.
    i256 = fig.x_values.index(256)
    assert wl[i256] < 1.5 * wl[small]
    assert wl[-1] > 3 * wl[small]


def test_fig3_batch_strategies_vs_payload(campaign):
    fig, = campaign("fig3")
    small = fig.x_values.index(32)
    sp = fig.get("Sp-size-16").values
    sgl = fig.get("Sgl-size-16").values
    db = fig.get("Doorbell-size-16").values
    assert sp[small] > sgl[small] > db[small]
    # SP/SGL decline with payload; Doorbell is comparatively flat.
    assert sp[-1] < 0.2 * sp[small]
    assert db[-1] > 0.4 * db[small]


def test_fig4_batch_size_scaling(campaign):
    fig, = campaign("fig4")
    sp = fig.get("Sp").values
    db = fig.get("Doorbell").values
    lw = fig.get("Local-W").values
    lr = fig.get("Local-R").values
    assert sp[-1] / sp[0] > 5          # SP scales with batch size
    assert db[-1] / db[0] < 2          # Doorbell barely improves
    assert 0.3 < sp[-1] / lw[-1] < 0.6     # ~44% of local write
    assert 0.9 < sp[-1] / lr[-1] < 1.4     # ~117% of local read


def test_fig5_thread_scaling(campaign):
    fig, = campaign("fig5")
    sp = fig.get("Sp").values
    sgl = fig.get("Sgl").values
    db = fig.get("Doorbell").values
    assert all(s >= g for s, g in zip(sp, sgl))
    assert db[-1] / db[0] < 0.45       # Doorbell collapses ~60%
    assert sp[-1] / sp[0] > 0.6        # SP keeps most of its rate


def test_fig6_rand_seq_remote(campaign):
    _, fig, _, _ = campaign("fig6")
    seq = fig.get("write-seq-seq").values
    rand = fig.get("write-rand-rand").values
    assert seq[0] > 1.8 * rand[0]
    # The remote asymmetry is far below the local 4-8x.
    assert seq[0] / rand[0] < 3.5


def test_fig6_registered_size_knee(campaign):
    *_, fig = campaign("fig6")
    seq = fig.get("seq-seq").values
    rand = fig.get("rand-rand").values
    i4k = fig.x_values.index("4K")
    assert rand[i4k] == pytest.approx(seq[i4k], rel=0.02)
    assert seq[-1] > 1.8 * rand[-1]


def test_fig8_io_consolidation(campaign):
    fig, = campaign("fig8")
    vals = fig.series[0].values
    native, best = vals[0], vals[-1]
    # Paper: ~7.49x at theta=16; accept the 5-12x band.
    assert 5 < best / native < 12
    # Monotone in theta; theta=1 may sit just below native (it pays the
    # staging copy without merging anything).
    assert vals[1:] == sorted(vals[1:])
    assert vals[1] > 0.9 * native
