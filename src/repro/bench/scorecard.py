"""Reproduction scorecard — every quantitative paper anchor, pass/fail.

One command (``python -m repro.bench scorecard``) re-measures the
paper's headline numbers and grades each against an explicit tolerance:

* CALIBRATED — the constant was tuned to this number (Fig 1, Table II);
  failing means the model regressed.
* EMERGENT — the number falls out of the model (everything else);
  failing means a mechanism is off.

This is the repository's single-screen health check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench.report import FigureResult

__all__ = ["ANCHORS", "points", "run_point", "assemble"]


@dataclass
class Anchor:
    name: str
    kind: str                   # "calibrated" | "emergent"
    paper_value: float
    measure: Callable[[], float]
    rel_tol: float              # acceptance band around paper_value
    unit: str = ""

    def passes(self, got: float) -> bool:
        lo = self.paper_value * (1 - self.rel_tol)
        hi = self.paper_value * (1 + self.rel_tol)
        return lo <= got <= hi


# ---- measurement helpers (cheap, self-contained) ---------------------------

def _write_latency_us() -> float:
    from repro.bench.fig01_throttling import _latency_us
    return _latency_us(32, "write")


def _read_latency_us() -> float:
    from repro.bench.fig01_throttling import _latency_us
    return _latency_us(32, "read")


def _write_mops() -> float:
    from repro.bench.fig01_throttling import _throughput_mops
    return _throughput_mops(32, "write", 1500)


def _read_mops() -> float:
    from repro.bench.fig01_throttling import _throughput_mops
    return _throughput_mops(32, "read", 1500)


def _atomic_mops() -> float:
    from repro.bench.fig10_atomics import _remote_seq_mops
    return _remote_seq_mops(8, 300_000)


def _seq_over_rand_write() -> float:
    from repro.bench.fig06_rand_seq import _remote_mops
    from repro.verbs import Opcode
    seq = _remote_mops(Opcode.WRITE, 32, "seq", "seq", n_ops=600)
    rand = _remote_mops(Opcode.WRITE, 32, "rand", "rand", n_ops=600)
    return seq / rand


def _consolidation_gain() -> float:
    from repro.bench.fig08_consolidation import _consolidated_mops, _native_mops
    return _consolidated_mops(16, 1200) / _native_mops(1200)


def _numa_gain_hashtable() -> float:
    from repro.bench.fig12_hashtable import CONFIGS, measure
    basic = measure(12, CONFIGS["Basic HashTable"]())
    numa = measure(12, CONFIGS["+Numa-OPT"]())
    return numa / basic


def _shuffle_speedup() -> float:
    from repro.bench.fig15_shuffle import measure
    basic = measure(16, True, strategy="basic", batch_size=1)
    sp16 = measure(16, True, strategy="sp", batch_size=16)
    return sp16 / basic


def _join_speedup() -> float:
    from repro.apps.join import single_machine_join_ns
    from repro.bench.fig16_join import join_time_ns
    target = 1 << 26
    return (single_machine_join_ns(target, target)
            / join_time_ns(16, 16, True, True, target=target))


def _dlog_numa_mops() -> float:
    from repro.bench.fig19_dlog import measure
    return measure(14, 32, numa=True)


ANCHORS = [
    Anchor("small WRITE latency", "calibrated", 1.16, _write_latency_us,
           0.10, "us"),
    Anchor("small READ latency", "calibrated", 2.00, _read_latency_us,
           0.10, "us"),
    Anchor("small WRITE throughput", "calibrated", 4.7, _write_mops,
           0.10, "MOPS"),
    Anchor("small READ throughput", "calibrated", 4.2, _read_mops,
           0.10, "MOPS"),
    Anchor("remote sequencer plateau", "emergent", 2.4, _atomic_mops,
           0.20, "MOPS"),
    Anchor("seq/rand write gap (2 GB-class window)", "emergent", 2.0,
           _seq_over_rand_write, 0.35, "x"),
    Anchor("IO consolidation theta=16", "emergent", 7.49,
           _consolidation_gain, 0.45, "x"),
    Anchor("hashtable NUMA gain", "emergent", 1.141, _numa_gain_hashtable,
           0.12, "x"),
    Anchor("shuffle SP(16) speedup", "emergent", 5.8, _shuffle_speedup,
           0.35, "x"),
    Anchor("join full-opt vs single machine", "emergent", 5.3,
           _join_speedup, 0.40, "x"),
    Anchor("dlog NUMA-aware @14 engines", "emergent", 17.7,
           _dlog_numa_mops, 0.25, "MOPS"),
]


def points(quick: bool = True) -> list:
    return [{"anchor": a.name} for a in ANCHORS]


def run_point(point: dict, quick: bool = True) -> float:
    return {a.name: a for a in ANCHORS}[point["anchor"]].measure()


def assemble(values: list, quick: bool = True) -> FigureResult:
    fig = FigureResult(
        name="Scorecard", title="Reproduction health check "
                                "(paper anchors, toleranced)",
        x_label="anchor", x_values=[a.name for a in ANCHORS],
        y_label="paper / measured / pass")
    results = [(a, got, a.passes(got)) for a, got in zip(ANCHORS, values)]
    fig.add("paper", [a.paper_value for a, _, _ in results])
    fig.add("measured", [got for _, got, _ in results])
    fig.add("pass", [1.0 if ok else 0.0 for _, _, ok in results])
    passed = sum(1 for _, _, ok in results if ok)
    fig.check("anchors passing", f"{passed}/{len(ANCHORS)}",
              f"{len(ANCHORS)}/{len(ANCHORS)}")
    for a, got, ok in results:
        fig.check(f"[{a.kind}] {a.name}",
                  f"{got:.3g} {a.unit} {'PASS' if ok else 'FAIL'}",
                  f"{a.paper_value:g} {a.unit} (±{a.rel_tol:.0%})")
    return fig
