"""Tests for the bench harness infrastructure: reports, runner, CLI."""

import pytest

from repro.bench import TARGETS
from repro.bench.report import FigureResult, Series, format_table
from repro.bench.runner import PipelinedClient, fresh_rig, write_wr
from repro.sim import Simulator


# ------------------------------------------------------------------- report

def make_fig():
    fig = FigureResult(name="Fig X", title="demo", x_label="n",
                       x_values=[1, 2, 4], y_label="MOPS")
    fig.add("a", [1.0, 2.0, 3.0])
    fig.add("b", [0.5, 1.0, 1.5])
    return fig


def test_figure_add_and_get():
    fig = make_fig()
    assert fig.get("a").values == [1.0, 2.0, 3.0]
    with pytest.raises(KeyError):
        fig.get("missing")


def test_figure_rejects_ragged_series():
    fig = make_fig()
    with pytest.raises(ValueError):
        fig.add("bad", [1.0])


def test_figure_text_contains_everything():
    fig = make_fig()
    fig.check("a beats b", "2x", "~2x")
    fig.notes.append("demo note")
    text = fig.to_text()
    assert "Fig X" in text and "demo" in text
    assert "a beats b" in text and "~2x" in text
    assert "demo note" in text
    # every x value and series label rendered
    for token in ("1", "2", "4", "a", "b"):
        assert token in text


def test_format_table_alignment_and_validation():
    out = format_table(["x", "yy"], [["1", "2"], ["10", "20"]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert len(set(len(l) for l in lines)) == 1  # fixed width
    with pytest.raises(ValueError):
        format_table(["x"], [["1", "2"]])


def test_series_coerces_floats():
    s = Series("s", [1, 2])
    assert s.values == [1.0, 2.0]
    assert all(isinstance(v, float) for v in s.values)


# ------------------------------------------------------------------- runner

def test_fresh_rig_shape():
    sim, ctx, lmr, rmr, qp, w = fresh_rig(machines=3, mr_bytes=8192,
                                          mr_socket=1)
    assert len(ctx.cluster) == 3
    assert lmr.socket == rmr.socket == 1
    assert qp.local_machine.machine_id == 0
    assert w.machine_id == 0


def test_pipelined_client_counts_and_rate():
    sim, ctx, lmr, rmr, qp, w = fresh_rig()
    client = PipelinedClient(w, qp, lambda i: write_wr(lmr, rmr, 32),
                             depth=8)
    sim.run(until=sim.process(client.run(500, warmup=100)))
    assert client.completed == 600
    assert client.measured_ops == 500
    assert client.mops == pytest.approx(4.7, rel=0.15)


def test_pipelined_client_depth_validation():
    sim, ctx, lmr, rmr, qp, w = fresh_rig()
    with pytest.raises(ValueError):
        PipelinedClient(w, qp, lambda i: write_wr(lmr, rmr, 32), depth=0)


# ---------------------------------------------------------------------- CLI

def test_targets_registry_resolves():
    import importlib
    for name, path in TARGETS.items():
        module = importlib.import_module(path)
        for attr in ("points", "run_point", "assemble"):
            assert hasattr(module, attr), f"{name} lacks {attr}()"


def test_cli_runs_a_cheap_target(capsys):
    from repro.bench.__main__ import main
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "92" in out and "162" in out


def test_cli_rejects_unknown_target():
    from repro.bench.__main__ import main
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_plot_flag_renders_figure(capsys):
    from repro.bench.__main__ import main
    assert main(["table2", "--plot"]) == 0
    out = capsys.readouterr().out
    assert "legend:" in out          # the terminal plot rendered
    assert "Latency (ns)" in out


# ------------------------------------------------ summary and breakdown
def test_summary_quick_reproduces_its_anchor_checks():
    from repro.bench.parallel import run_campaign

    fig, = run_campaign("summary").figures
    assert fig.checks == [
        ("hashtable speedup", "3.5x", "2.7x"),
        ("shuffle speedup", "5.9x", "5.8x"),
        ("join speedup", "5.6x", "5.3x"),
        # the distributed log's gap to the paper is a known model limit
        ("distributed log speedup", "5.9x", "9.1x"),
    ]
    base, opt, speedup = (fig.get(s).values
                          for s in ("baseline", "optimized", "speedup"))
    assert all(x > 1.0 for x in speedup)
    assert opt[2] < base[2]  # the join row is seconds: lower is better


def test_breakdown_reproduces_its_anchor_checks():
    from repro.bench.parallel import run_campaign

    fig, = run_campaign("breakdown").figures
    assert fig.checks == [
        ("alternate-placement write penalty", "+208 ns",
         "QPI on MMIO + WQE fetch + responder DMA (Table III)"),
        ("network share invariant", "220 ns", "220 ns"),
    ]
    # every stage sums to the total it is a breakdown of
    for series in fig.series:
        *stages, total = series.values
        assert sum(stages) == pytest.approx(total)
