"""A/B harness: bench tables with the express lane on vs off.

Runs every figure/table/ext target twice in one process — once with
``REPRO_EXPRESS=0`` (stepped) and once with the lane enabled — and
diffs the rendered tables byte-for-byte.  Every simulator a run builds
also gets a completions-only sanitizer, and the runs must agree on each
simulator's completion digest (:class:`repro.check.checkers.
CompletionsChecker`): a per-WR lane difference fails the target even
when its table hides it.  Also reports dispatched events per run, which
is the lane's whole point.

Usage::

    PYTHONPATH=src python tools/express_ab.py [target ...]

With no arguments, runs the full catalog (minutes).
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time


META = {"summary", "scorecard"}


@contextlib.contextmanager
def completion_digests():
    """Install a completions-only sanitizer on every simulator built in
    the block; yields the list their checkers land in, in build order."""
    from repro.check import Sanitizer
    from repro.sim.engine import Simulator

    checkers = []
    init = Simulator.__init__

    def init_checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        san = Sanitizer(self, checkers=("completions",))
        checkers.append(san.completions)

    Simulator.__init__ = init_checked
    try:
        yield checkers
    finally:
        Simulator.__init__ = init


def run_target(name: str, module) -> tuple[str, int, list[str]]:
    """Render ``module``'s tables; returns (text, dispatched events, the
    completion digest of every simulator the run built)."""
    from repro.sim.engine import Simulator
    before = Simulator.total_events
    with completion_digests() as checkers:
        if hasattr(module, "run"):
            text = module.run(quick=True).to_text()
        else:
            # Multi-figure targets (fig10/fig13/fig16) expose
            # points/assemble instead of a single run(); diff every
            # figure's rendering.
            values = [module.run_point(pt, quick=True)
                      for pt in module.points(quick=True)]
            figs = module.assemble(values, quick=True)
            text = "\n".join(f.to_text() for f in figs)
    events = Simulator.total_events - before
    return text, events, [c.digest for c in checkers]


def main(argv: list[str]) -> int:
    from repro.bench import TARGETS

    names = argv or [n for n in sorted(TARGETS) if n not in META]
    failures = []
    for name in names:
        module = importlib.import_module(TARGETS[name])
        os.environ["REPRO_EXPRESS"] = "0"
        t0 = time.time()
        text_off, ev_off, dig_off = run_target(name, module)
        t_off = time.time() - t0
        os.environ["REPRO_EXPRESS"] = "1"
        t0 = time.time()
        text_on, ev_on, dig_on = run_target(name, module)
        t_on = time.time() - t0
        ratio = ev_off / ev_on if ev_on else float("nan")
        ok = text_on == text_off and dig_on == dig_off
        print(f"{name:20s} {'OK ' if ok else 'DIFF'} "
              f"events {ev_off:>10d} -> {ev_on:>10d} ({ratio:4.2f}x) "
              f"wall {t_off:6.2f}s -> {t_on:6.2f}s  sims {len(dig_on)}")
        if not ok:
            failures.append(name)
        if dig_on != dig_off:
            diff = [i for i, (a, b) in enumerate(zip(dig_off, dig_on))
                    if a != b]
            print(f"  completion digests differ: {len(dig_off)} -> "
                  f"{len(dig_on)} simulators, first differing at "
                  f"{diff[0] if diff else min(len(dig_off), len(dig_on))}")
            off_lines = text_off.splitlines()
            on_lines = text_on.splitlines()
            for i, (a, b) in enumerate(zip(off_lines, on_lines)):
                if a != b:
                    print(f"  line {i}:\n  - {a}\n  + {b}")
                    break
    os.environ.pop("REPRO_EXPRESS", None)
    if failures:
        print(f"\nFAILED: {', '.join(failures)}")
        return 1
    print("\nall targets bit-identical (tables and completion digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
