"""The scorecard and breakdown as guarded benchmarks."""

import pytest


def test_scorecard_all_anchors_pass(campaign):
    fig, = campaign("scorecard")
    passes = fig.get("pass").values
    names = fig.x_values
    failing = [n for n, p in zip(names, passes) if p < 1.0]
    assert not failing, f"anchors out of tolerance: {failing}"


def test_breakdown_decomposition(campaign):
    fig, = campaign("breakdown")
    # The paper's decomposition: network terms identical across ops and
    # placements; the alternate placement pays only on host-side stages.
    w_aff = fig.get("write (affine)").values
    w_alt = fig.get("write (alternate)").values
    stages = fig.x_values
    i_net = stages.index("network")
    i_total = stages.index("TOTAL")
    assert w_aff[i_net] == pytest.approx(w_alt[i_net])
    assert w_alt[i_total] > w_aff[i_total]
    # Stage sums equal totals.
    assert sum(w_aff[:-1]) == pytest.approx(w_aff[i_total], rel=0.01)
