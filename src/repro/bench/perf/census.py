"""Event census: dispatched events per completed op, by scheduling layer.

``python -m repro.bench.perf census <scenario...>`` runs perf scenarios
with the engine's heap push and pop wrapped.  Each push is charged to the
layer of the code that scheduled it; each pop that the engine dispatches
(not a tombstone) counts that charge.  The per-layer counts therefore sum
to the scenario's ``events``, and since the wrappers only count, the run
reproduces the scenario's schedule digest.  It does not use
``Simulator.trace_dispatch``, which would turn the express lane off.

Tail wakes (``Simulator.call_tail``) are charged to the layer that called
``call_tail``, whether the engine pushes them at once, pushes them when
the dispatch ends, or runs them in place.  In-place runs — and the express
lane's in-place completions (``Simulator._fire_now``) — are not
dispatched events; they are counted in a second table, ``in place``, by
the same layers.

Who scheduled an event:

* a process's bare delay or boot (a ``_Sleep`` entry): the code of the
  innermost generator the process is running;
* a tail wake: the caller of ``call_tail``, found as below;
* any other entry: the innermost frame on the stack outside
  :mod:`repro.sim`, looking no further out than the dispatch loop — an
  entry the engine pushes on its own (a process finishing, an ``all_of``
  firing) is charged to ``sim``.

Layers are source packages of ``repro``; ``verbs-stepped`` is all of
``repro.verbs`` except the express lane (the stepped pipeline plus the
QP and Worker code both lanes share), and ``other`` is everything else
(``repro.core``, ``repro.memory``, code outside ``repro``).  The census
is informational: it is not gated and not written to ``BENCH_perf.json``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from collections import Counter
from typing import Iterator

import repro
from repro.sim import engine
from repro.sim.engine import Simulator, _Sleep

__all__ = ["LAYERS", "census", "layer_of", "main"]

#: Report order.
LAYERS = ("sim", "hw", "verbs-stepped", "verbs.express", "tenancy", "load",
          "apps", "bench", "other")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_PACKAGES = {"sim": "sim", "hw": "hw", "verbs": "verbs-stepped",
             "tenancy": "tenancy", "load": "load", "apps": "apps",
             "bench": "bench"}
_DISPATCH = frozenset({Simulator.run.__code__, Simulator.step.__code__})


@functools.lru_cache(maxsize=None)
def layer_of(path: str) -> str:
    """The census layer of a source file."""
    path = os.path.abspath(path)
    if not path.startswith(_REPRO_DIR):
        return "other"
    rel = path[len(_REPRO_DIR):].replace(os.sep, "/")
    if rel == "verbs/express.py":
        return "verbs.express"
    return _PACKAGES.get(rel.split("/", 1)[0], "other")


def _frame_layer(frame) -> str:
    """The layer of the innermost frame from ``frame`` outward that lies
    outside :mod:`repro.sim`, stopping at the dispatch loop (``sim``)."""
    while frame is not None:
        code = frame.f_code
        if code in _DISPATCH:
            break
        layer = layer_of(code.co_filename)
        if layer != "sim":
            return layer
        frame = frame.f_back
    return "sim"


def _scheduler(entry: tuple) -> str:
    """The layer that is pushing heap ``entry`` (called from the push)."""
    target = entry[3]
    if type(target) is _Sleep:
        gen = target.proc._generator
        inner = getattr(gen, "gi_yieldfrom", None)
        while inner is not None and hasattr(inner, "gi_code"):
            gen, inner = inner, inner.gi_yieldfrom
        return layer_of(gen.gi_code.co_filename)
    return _frame_layer(sys._getframe(2))  # skip the push wrapper and us


@contextlib.contextmanager
def _counting() -> Iterator[tuple[Counter, Counter]]:
    """Wrap the engine's heap push and pop and its two in-place paths;
    yield (dispatches by layer, in-place runs by layer)."""
    counts: Counter = Counter()
    in_place: Counter = Counter()
    charged: dict[int, str] = {}  # id(heap entry) -> layer, while queued
    # (id(heap), reserved seq) -> layer, for a tail not yet pushed or run
    reserved: dict[tuple[int, int], str] = {}
    push, pop = engine.heappush, engine.heappop
    call_tail, fire_now = Simulator.call_tail, Simulator._fire_now

    def counting_push(heap: list, entry: tuple) -> None:
        layer = reserved.pop((id(heap), entry[2]), None)
        charged[id(entry)] = layer or _scheduler(entry)
        push(heap, entry)

    def counting_pop(heap: list) -> tuple:
        entry = pop(heap)
        layer = charged.pop(id(entry), "other")
        target = entry[3]
        if type(target) is _Sleep:
            proc = target.proc
            live = proc is not None and proc._waiting_on is target
        else:
            live = not target._cancelled
        if live:  # the same test the dispatch loop applies next
            counts[layer] += 1
        return entry

    def counting_tail(sim: Simulator, when: float, fn) -> None:
        key = (id(sim._heap), sim._seq + 1)  # the seq call_tail reserves
        layer = reserved[key] = _frame_layer(sys._getframe(1))

        def counted(ev) -> None:
            # Still reserved when it runs: it was never pushed.
            if reserved.pop(key, None) is not None:
                in_place[layer] += 1
            fn(ev)

        call_tail(sim, when, counted)

    def counting_fire_now(sim: Simulator, event, value) -> None:
        in_place[_frame_layer(sys._getframe(1))] += 1
        fire_now(sim, event, value)

    engine.heappush, engine.heappop = counting_push, counting_pop
    setattr(Simulator, "call_tail", counting_tail)
    setattr(Simulator, "_fire_now", counting_fire_now)
    try:
        yield counts, in_place
    finally:
        engine.heappush, engine.heappop = push, pop
        setattr(Simulator, "call_tail", call_tail)
        setattr(Simulator, "_fire_now", fire_now)


def census(names: list[str]) -> dict:
    """Run each named perf scenario under the census.

    Returns ``{name: {"by_layer", "in_place", "events", "ops",
    "digest"}}``, where ``events`` and ``digest`` are the scenario's own
    numbers from :func:`~repro.bench.perf.harness.run_scenarios`.
    """
    from repro.bench.perf.harness import run_scenarios
    from repro.verbs.qp import tally

    out = {}
    for name in names:
        ops_before = tally.completions
        with _counting() as (counts, in_place):
            row = run_scenarios([name])["scenarios"][name]
        out[name] = {
            "by_layer": {layer: counts[layer] for layer in LAYERS},
            "in_place": {layer: in_place[layer] for layer in LAYERS},
            "events": row["events"],
            "ops": tally.completions - ops_before,
            "digest": row["digest"],
        }
    return out


def main(names: list[str]) -> int:
    """Print the census table; fails if a layer total misses ``events``."""
    rows = census(names)
    print("dispatched events per completed op, by the layer that "
          "scheduled them")
    print(f"{'layer':<14}" + "".join(f"{n:>12}" for n in names))

    def line(label: str, values) -> None:
        print(f"{label:<14}" + "".join(f"{v:>12}" for v in values))

    def per_op(name: str, n: int) -> str:
        ops = rows[name]["ops"]
        return f"{n / ops:.2f}" if ops else str(n)

    for layer in LAYERS:
        line(layer, [per_op(n, rows[n]["by_layer"][layer]) for n in names])
    totals = {n: sum(rows[n]["by_layer"].values()) for n in names}
    line("total", [per_op(n, totals[n]) for n in names])
    line("events", [rows[n]["events"] for n in names])
    line("ops", [rows[n]["ops"] for n in names])
    line("digest", [rows[n]["digest"][:10] for n in names])
    print()
    print("in place: tail wakes and completions run without a heap round "
          "trip, per completed op, by the layer that scheduled them")
    for layer in LAYERS:
        line(layer, [per_op(n, rows[n]["in_place"][layer]) for n in names])
    line("total", [per_op(n, sum(rows[n]["in_place"].values()))
                   for n in names])
    bad = [n for n in names if totals[n] != rows[n]["events"]]
    for n in bad:
        print(f"{n}: census counted {totals[n]:,} dispatches, the "
              f"scenario {rows[n]['events']:,}")
    return 1 if bad else 0
