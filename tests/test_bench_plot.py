"""Tests for the terminal plotter."""

import pytest

from repro.bench.plot import MARKERS, render
from repro.bench.report import FigureResult


def make_fig(values_a, values_b=None, x=None):
    x = x if x is not None else list(range(len(values_a)))
    fig = FigureResult(name="F", title="t", x_label="n", x_values=x,
                       y_label="MOPS")
    fig.add("alpha", values_a)
    if values_b is not None:
        fig.add("beta", values_b)
    return fig


def test_render_contains_axes_and_legend():
    fig = make_fig([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    out = render(fig)
    assert "x: n" in out
    assert "alpha" in out and "beta" in out
    assert MARKERS[0] in out and MARKERS[1] in out
    assert "+-" in out  # the axis line


def test_render_linear_by_default():
    out = render(make_fig([1.0, 2.0, 3.0]))
    assert "log scale" not in out


def test_render_switches_to_log_for_wide_ranges():
    out = render(make_fig([0.01, 1.0, 100.0]))
    assert "log scale" in out


def test_render_log_can_be_forced_off():
    out = render(make_fig([0.01, 1.0, 100.0]), log_y=False)
    assert "log scale" not in out


def test_extreme_points_land_on_canvas_edges():
    fig = make_fig([0.0, 10.0])
    out = render(fig, width=40, height=10)
    lines = out.splitlines()
    rows = [l for l in lines if "|" in l]
    # max value on the top data row, min on the bottom one.
    assert MARKERS[0] in rows[0]
    assert MARKERS[0] in rows[-1]


def test_overlapping_series_marked():
    fig = make_fig([5.0, 5.0], [5.0, 5.0])
    out = render(fig)
    assert "?" in out  # collision marker


def test_render_validation():
    fig = make_fig([1.0])
    with pytest.raises(ValueError):
        render(fig, width=5)
    empty = FigureResult(name="E", title="t", x_label="n", x_values=[1],
                         y_label="y")
    with pytest.raises(ValueError):
        render(empty)


def test_render_every_real_figure_smoke():
    """The plotter must handle any FigureResult the benches produce."""
    from repro.bench.parallel import run_campaign
    out = render(run_campaign("table2").figures[0])
    assert "Table II" in out
