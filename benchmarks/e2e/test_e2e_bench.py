"""Tests of the end-to-end benchmark itself (not of the simulator).

Run with ``python -m pytest benchmarks/e2e -q``; every workload runs at
scale 0.02, so the whole file takes well under a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.load import OpenLoopGenerator  # noqa: E402

SCALE = 0.02
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(name, seed=0):
    rig = workloads.build_workload(name, seed, SCALE)
    rig.run()
    return rig.result()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_is_deterministic_and_pinned(name):
    first, second = _result(name), _result(name)
    assert first["violations"] == []
    assert first["digest"] == second["digest"]
    assert first["events"] == second["events"]
    assert first["digest"] == run.load_pins()[repr(SCALE)][name]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_changes_the_digest(name):
    assert _result(name, seed=1)["digest"] != _result(name)["digest"]


def test_dropped_outcome_trips_the_invariants(monkeypatch):
    orig = OpenLoopGenerator.__init__

    def init(gen, sim, request_fn, times_ns, name="openloop"):
        # The generator loses its last request: it never gets an outcome.
        orig(gen, sim, request_fn, times_ns[:-1], name=name)

    monkeypatch.setattr(OpenLoopGenerator, "__init__", init)
    res = _result("serve_bursty")
    assert any("exactly one outcome" in v for v in res["violations"])
    problems = run.check_reps("serve_bursty", 0, SCALE, [res], [], {})
    assert problems


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_equals_untraced(name):
    plain = _result(name)
    led = ledger.Ledger().install()
    try:
        rig = workloads.build_workload(name, 0, SCALE)
        led.profile(rig.run)
    finally:
        led.uninstall()
    traced = rig.result()
    assert traced["digest"] == plain["digest"]
    assert traced["events"] == plain["events"]
    layers = led.metrics(traced["wrs"])
    total = sum(layers[f"{layer}.self_s"] for layer in ledger.LAYERS)
    assert total == pytest.approx(layers["profiled_s"], rel=1e-9)
    expected = 0.0 if name == "faults_lossy" else 1.0
    assert layers["verbs.express_frac"] == expected
    measured = set(layers) | set(traced["counters"]) | {
        "workloads.gen_s", "trace_overhead_frac"}
    assert set(run.PER_LAYER) <= measured


def test_contract_metrics_are_computed_with_their_units():
    for m in CONTRACT["end_to_end"]:
        unit, better, _ = run.END_TO_END[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
    for m in CONTRACT["per_layer"]:
        assert m["unit"] == run.PER_LAYER[m["name"]]
    names = [w["name"] for w in CONTRACT["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", repr(SCALE),
         *args], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_report_prints_every_metric_with_its_unit():
    out = _bench("--reps", "1", "--trace")
    lines = out.splitlines()
    for name in run.WORKLOADS:
        for metric, (unit, _, _) in run.END_TO_END.items():
            assert any(line.split()[:3] == [name, metric, unit]
                       for line in lines), (name, metric)
    for metric, unit in run.PER_LAYER.items():
        rows = [line.split() for line in lines if line.split()[:1] == [metric]]
        assert len(rows) == len(run.WORKLOADS)
        assert all(row[-1] == unit for row in rows), metric
    assert "CHECK FAILED" not in out


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_timed_mode_prints_the_contract_summary(trace, key):
    out = _bench("--workload", "txn_contended", "--seed", "3",
                 "--seconds", "1", "--trace", trace)
    summary = json.loads(out.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    assert summary["metrics"] == {
        m["name"]: {"value": summary["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in CONTRACT[key]}


def test_compare_verdicts():
    assert compare.verdict([1.0, 1.0], [1.0, 1.0], "lower", 0.0, True) == "ok"
    assert compare.verdict([1.0], [1.01], "lower", 0.0, True) == "worse"
    assert compare.verdict([100, 101, 99], [80, 81, 79], "higher", 0.1,
                           False) == "worse"
    assert compare.verdict([100, 101, 99], [98, 99, 97], "higher", 0.1,
                           False) == "ok"
    assert compare.verdict([100, 150, 60, 120], [98, 99, 97], "higher", 0.1,
                           False) == "unresolved"
