"""A/B harness: bench tables with the express lane on vs off.

Runs every figure/table/ext target twice in one process — once on the
stepped pipeline and once on the express lane, through the lane
differential (:mod:`repro.check.differential`) — and diffs the rendered
tables byte-for-byte.  The runs must also agree on every simulator's
completion digest: a per-WR lane difference fails the target even when
its table hides it, and the report names the first differing simulator,
its first differing completion and each lane's row for it.  Also
reports dispatched events per run, which is the lane's whole point.

Usage::

    PYTHONPATH=src python tools/express_ab.py [target ...]

With no arguments, runs the full catalog (minutes).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


META = {"summary", "scorecard"}


def render(module) -> str:
    """Render ``module``'s tables in quick mode."""
    if hasattr(module, "run"):
        return module.run(quick=True).to_text()
    # Multi-figure targets (fig10/fig13/fig16) expose points/assemble
    # instead of a single run(); diff every figure's rendering.
    values = [module.run_point(pt, quick=True)
              for pt in module.points(quick=True)]
    figs = module.assemble(values, quick=True)
    return "\n".join(f.to_text() for f in figs)


def main(argv: list[str]) -> int:
    from repro.bench import TARGETS
    from repro.check import differential
    from repro.sim.engine import Simulator

    names = argv or [n for n in sorted(TARGETS) if n not in META]
    failures = []
    for name in names:
        fn = functools.partial(render, importlib.import_module(TARGETS[name]))
        runs = []
        for express in (False, True):
            events, t0 = Simulator.total_events, time.time()
            runs.append((differential.run(fn, express),
                         Simulator.total_events - events, time.time() - t0))
        (off, ev_off, t_off), (on, ev_on, t_on) = runs
        divergence = differential.compare(fn, off, on)
        ratio = ev_off / ev_on if ev_on else float("nan")
        ok = on.value == off.value and divergence is None
        print(f"{name:20s} {'OK ' if ok else 'DIFF'} "
              f"events {ev_off:>10d} -> {ev_on:>10d} ({ratio:4.2f}x) "
              f"wall {t_off:6.2f}s -> {t_on:6.2f}s  sims {len(on.digests)}")
        if not ok:
            failures.append(name)
        if divergence is not None:
            print("  completion digests differ; " + divergence)
        for i, (a, b) in enumerate(zip(off.value.splitlines(),
                                       on.value.splitlines())):
            if a != b:
                print(f"  line {i}:\n  - {a}\n  + {b}")
                break
    if failures:
        print(f"\nFAILED: {', '.join(failures)}")
        return 1
    print("\nall targets bit-identical (tables and completion digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
