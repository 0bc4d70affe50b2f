"""Event census: dispatched events per completed op, by scheduling layer.

``python -m repro.bench.perf census <scenario...>`` runs perf scenarios
with the engine's one scheduling point (``Simulator._park``) and its heap
pops (``heappop``, ``heappushpop``) wrapped.  Each entry is charged to the
layer of the code that scheduled it; each pop that the engine dispatches
(not a tombstone) counts that charge.  The per-layer counts therefore sum
to the scenario's ``events``, and since the wrappers only count, the run
reproduces the scenario's schedule digest.  ``Simulator.trace_dispatch``
would not do: it sees each dispatch's key, not the code that scheduled
it.

An entry ``heappushpop`` hands back as the tail it was given ran in
place: it is not a dispatched event, and is counted in a second table,
``in place``, by the same layers.

Who scheduled an event:

* a process's bare delay or boot (a ``_Sleep`` entry): the code of the
  innermost generator the process is running, read when the entry is
  popped (the generator has not moved since it yielded; the loop's own
  sleeper re-push never calls ``_park``);
* any other entry: the innermost frame on the stack outside
  :mod:`repro.sim`, looking no further out than the dispatch loop — an
  entry the engine schedules on its own (a process finishing, an
  ``all_of`` firing) is charged to ``sim``;
* a lease's end wake (:meth:`~repro.sim.Resource.lease`, woken only when
  a waiter queues behind it) and what its handover schedules: the layer
  of the lease's callback, which is where a ``book`` end-wake and its
  ``release()`` would have been charged.

Layers are source packages of ``repro``; ``verbs-stepped`` is all of
``repro.verbs`` except the express lane (the stepped pipeline plus the
QP and Worker code both lanes share), and ``other`` is everything else
(``repro.core``, code outside ``repro``).

A third table, ``calls``, counts Python calls per completed op by the
same layers, from a second run of each scenario under ``cProfile`` (the
counting run above doubles as its warm-up, so lazy imports and cost-cache
fills do not land in the count).  A Python function's calls (generator
resumptions included) go to the layer of its source file; a builtin's go
to the layer of each caller.  Unlike wall time, the count repeats
exactly, and it sees work done inside one event, which the event tables
cannot.

Two more lines close the report.  ``lane coverage`` gives the share of
completed ops the express lane booked and the stepped WRs by why their
simulator had no lane (:data:`~repro.verbs.qp.STEP_REASONS`, counted by
the stepped path only), from the counting run.  ``traced peak KB`` is
the tracemalloc peak of a third, untimed run
(:func:`~repro.bench.perf.harness.traced_peak_kb`).  The printed census
is informational, but each ``make perf`` row records the per-op events
and calls by layer (:func:`layer_rows`) and gates them against a rise,
next to its own ``express_frac`` and ``traced_peak_kb``, and the
completion digests of the event-counting run as ``completions_digest``.
"""

from __future__ import annotations

import cProfile
import contextlib
import functools
import gc
import os
import sys
from collections import Counter
from typing import Callable, Iterator, Optional

import repro
from repro.sim import Resource, engine
from repro.sim.engine import Simulator, _Sleep, _dead
from repro.verbs.qp import STEP_REASONS

__all__ = ["LAYERS", "calls_by_layer", "census", "events_by_layer",
           "layer_of", "layer_rows", "main"]

#: Report order.
LAYERS = ("sim", "hw", "memory", "verbs-stepped", "verbs.express", "tenancy",
          "load", "apps", "bench", "other")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_PACKAGES = {"sim": "sim", "hw": "hw", "memory": "memory",
             "verbs": "verbs-stepped",
             "tenancy": "tenancy", "load": "load", "apps": "apps",
             "bench": "bench"}
_DISPATCH = frozenset({Simulator.run.__code__, Simulator.step.__code__})
_LEASE_END = Resource._lease_end.__code__


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


def _frame_layer(frame) -> Optional[str]:
    """The layer of the innermost frame from ``frame`` outward that lies
    outside :mod:`repro.sim`, stopping at the dispatch loop (``sim``);
    ``None`` inside a lease's end wake (the wake's own charge applies)."""
    while frame is not None:
        code = frame.f_code
        if code in _DISPATCH:
            break
        if code is _LEASE_END:
            return None
        layer = layer_of(code.co_filename)
        if layer != "sim":
            return layer
        frame = frame.f_back
    return "sim"


def _sleeper_layer(marker: _Sleep) -> str:
    """The layer of the generator a sleeping process is suspended in."""
    gen = marker.proc._generator
    inner = getattr(gen, "gi_yieldfrom", None)
    while inner is not None and hasattr(inner, "gi_code"):
        gen, inner = inner, inner.gi_yieldfrom
    return layer_of(gen.gi_code.co_filename)


@contextlib.contextmanager
def _counting() -> Iterator[tuple[Counter, Counter]]:
    """Wrap ``Simulator._park`` and the engine's heap push, pop and
    pushpop; yield (dispatches by layer, in-place runs by layer)."""
    counts: Counter = Counter()
    in_place: Counter = Counter()
    charged: dict[int, str] = {}  # id(entry) -> layer, while scheduled
    # The last dispatch counted: (heap, seq, layer, tally it went to).
    last: list = [None, 0, "", counts]
    leased: dict[int, str] = {}  # id(resource) -> its lease's layer
    park, grant = Simulator._park, Resource._grant_lease
    push, pop, pushpop = engine.heappush, engine.heappop, engine.heappushpop

    def counting_park(sim: Simulator, entry: tuple) -> None:
        target = entry[3]
        if type(target) is not _Sleep:
            if getattr(target, "__func__", None) is Resource._lease_end:
                layer = leased[id(target.__self__)]
            else:
                layer = _frame_layer(sys._getframe(1))
            charged[id(entry)] = last[2] if layer is None else layer
        park(sim, entry)

    def counting_grant(res: Resource, dur: float, cb: Callable) -> None:
        fn = getattr(cb, "func", cb)  # a wake partial's function
        leased[id(res)] = layer_of(fn.__code__.co_filename)
        grant(res, dur, cb)

    def count(heap: list, entry: tuple, tally: Counter) -> None:
        target = entry[3]
        if type(target) is _Sleep:
            proc = target.proc
            if proc is None or proc._waiting_on is not target:
                return  # the same tombstone test the dispatch loop applies
            layer = _sleeper_layer(target)
        else:
            layer = charged.pop(id(entry), "other")
            if _dead(target):
                return
        tally[layer] += 1
        last[:] = heap, entry[2], layer, tally

    def counting_pop(heap: list) -> tuple:
        entry = pop(heap)
        count(heap, entry, counts)
        return entry

    def counting_pushpop(heap: list, item: tuple) -> tuple:
        entry = pushpop(heap, item)
        count(heap, entry, in_place if entry is item else counts)
        return entry

    def counting_push(heap: list, entry: tuple) -> None:
        # ``run(until=T)`` pops the first entry past T and pushes it back
        # undispatched: take back its count (seqs are unique per heap).
        if heap is last[0] and entry[2] == last[1]:
            last[0] = None
            last[3][last[2]] -= 1
            if type(entry[3]) is not _Sleep:
                charged[id(entry)] = last[2]
        push(heap, entry)

    engine.heappush, engine.heappop = counting_push, counting_pop
    engine.heappushpop = counting_pushpop
    setattr(Simulator, "_park", counting_park)
    setattr(Resource, "_grant_lease", counting_grant)
    try:
        yield counts, in_place
    finally:
        engine.heappush, engine.heappop = push, pop
        engine.heappushpop = pushpop
        setattr(Simulator, "_park", park)
        setattr(Resource, "_grant_lease", grant)


def _ops_of(run: Callable[[], object]) -> int:
    """Call ``run`` with the collector paused, as in the timed run;
    returns the ops it completed."""
    from repro.verbs.qp import tally

    ops_before = tally.completions
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        run()
    finally:
        if gc_was_enabled:
            gc.enable()
    return tally.completions - ops_before


def events_by_layer(name: str) -> tuple[Counter, int, list[str]]:
    """Dispatched events by layer in one run of perf scenario ``name``
    under the counting wrappers, the ops the run completed, and each
    simulator's completion digest.  The run goes through the lane
    differential (:func:`repro.check.differential.run`: ids numbered
    from 1, a completions-only sanitizer on each simulator), which
    schedules no event, on the lane the timed run takes: the express
    lane unless ``REPRO_EXPRESS=0``.  Simulators in forked campaign
    workers are not digested."""
    from repro.bench.perf.harness import SCENARIOS
    from repro.check import differential

    express = os.environ.get("REPRO_EXPRESS", "1") != "0"
    with _counting() as (counts, _in_place):
        lane = differential.run(functools.partial(_ops_of, SCENARIOS[name]),
                                express)
    return counts, lane.value, lane.digests


def layer_rows(name: str) -> tuple[dict, list[str]]:
    """The gated per-layer rows of a ``make perf`` scenario:
    ``events_by_layer`` and ``calls_by_layer``, per completed op, from
    one untimed run under :func:`events_by_layer` and one under
    :func:`calls_by_layer`; layers with no count are left out.  Also
    the first run's completion digests."""
    events, ops, digests = events_by_layer(name)
    calls, calls_ops = calls_by_layer(name)
    if not ops or calls_ops != ops:
        raise RuntimeError(f"{name}: the census runs completed {ops} and "
                           f"{calls_ops} ops")
    return ({"events_by_layer": {layer: round(events[layer] / ops, 2)
                                 for layer in LAYERS if events[layer]},
             "calls_by_layer": {layer: round(calls[layer] / ops, 1)
                                for layer in LAYERS if calls[layer]}},
            digests)


def calls_by_layer(name: str) -> tuple[Counter, int]:
    """Python calls by layer in one run of perf scenario ``name`` under
    ``cProfile``, and the ops the run completed.  Builtins are charged
    to the layer of the code that called them."""
    from repro.bench.perf.harness import SCENARIOS

    prof = cProfile.Profile()
    ops = _ops_of(functools.partial(prof.runcall, SCENARIOS[name]))
    # The profiler's raw entries, not ``pstats``: pstats keys functions
    # by (file, line, name), so synthesized functions that share a label
    # (every dataclass ``__init__`` is ("<string>", 2, "__init__"), every
    # named tuple's ``__new__`` ("<string>", 1, "<lambda>")) overwrite
    # one another and all but one go uncounted.
    calls: Counter = Counter()
    builtin_calls = 0
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin, charged to its callers
            builtin_calls += entry.callcount
            continue
        layer = layer_of(code.co_filename)
        calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                calls[layer] += sub.callcount
                builtin_calls -= sub.callcount
    calls["other"] += builtin_calls  # called from builtins or unprofiled
    return calls, ops


def census(names: list[str]) -> dict:
    """Run each named perf scenario under the census.

    Returns ``{name: {"by_layer", "in_place", "events", "in_place_events",
    "ops", "stepped", "digest", "calls", "calls_ops", "traced_peak_kb"}}``,
    where ``events`` and ``digest`` are the scenario's own numbers from
    :func:`~repro.bench.perf.harness.run_scenarios`,
    ``in_place_events`` is the engine's own in-place count, ``stepped``
    counts the WRs that stepped by :data:`~repro.verbs.qp.STEP_REASONS`
    entry, ``calls``/``calls_ops`` come from a second run under
    :func:`calls_by_layer`, and ``traced_peak_kb`` from a third under
    :func:`~repro.bench.perf.harness.traced_peak_kb`.
    """
    from repro.bench.perf.harness import (SCENARIOS, run_scenarios,
                                          traced_peak_kb)
    from repro.verbs.qp import tally

    out = {}
    for name in names:
        ops_before = tally.completions
        stepped_before = dict(tally.stepped)
        in_place_before = engine.tally.in_place
        with _counting() as (counts, in_place):
            row = run_scenarios([name])["scenarios"][name]
        out[name] = {
            "by_layer": {layer: counts[layer] for layer in LAYERS},
            "in_place": {layer: in_place[layer] for layer in LAYERS},
            "events": row["events"],
            "in_place_events": engine.tally.in_place - in_place_before,
            "ops": tally.completions - ops_before,
            "stepped": {reason: n - stepped_before[reason]
                        for reason, n in tally.stepped.items()},
            "digest": row["digest"],
        }
        calls, calls_ops = calls_by_layer(name)
        out[name]["calls"] = {layer: calls[layer] for layer in LAYERS}
        out[name]["calls_ops"] = calls_ops
        out[name]["traced_peak_kb"] = traced_peak_kb(SCENARIOS[name])
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
    print("in place: dispatches run from the tail slot without a heap "
          "round trip, per completed op, by the layer that scheduled them")
    for layer in LAYERS:
        line(layer, [per_op(n, rows[n]["in_place"][layer]) for n in names])
    in_place = {n: sum(rows[n]["in_place"].values()) for n in names}
    line("total", [per_op(n, in_place[n]) for n in names])
    print()
    print("calls: Python calls per completed op, by layer (a separate "
          "cProfile run; builtins charged to their caller's layer)")

    def calls_per_op(name: str, n: int) -> str:
        ops = rows[name]["calls_ops"]
        return f"{n / ops:.1f}" if ops else str(n)

    for layer in LAYERS:
        line(layer, [calls_per_op(n, rows[n]["calls"][layer]) for n in names])
    calls = {n: sum(rows[n]["calls"].values()) for n in names}
    line("total", [calls_per_op(n, calls[n]) for n in names])
    line("calls", [calls[n] for n in names])
    print()
    print("lane coverage: share of completed ops the express lane booked, "
          "and stepped WRs by why their simulator had no lane")

    def express(name: str) -> str:
        ops = rows[name]["ops"]
        stepped = sum(rows[name]["stepped"].values())
        return f"{100.0 * (1.0 - stepped / ops):.1f}%" if ops else "-"

    line("express", [express(n) for n in names])
    line("stepped", [sum(rows[n]["stepped"].values()) for n in names])
    for reason in STEP_REASONS:
        if any(rows[n]["stepped"][reason] for n in names):
            line(f"  {reason}", [rows[n]["stepped"][reason] for n in names])
    print()
    line("traced peak KB", [rows[n]["traced_peak_kb"] for n in names])
    bad = 0
    for n in names:
        for what, got, want in (
                ("dispatches", totals[n], rows[n]["events"]),
                ("in-place runs", in_place[n], rows[n]["in_place_events"]),
                ("completed ops under cProfile", rows[n]["calls_ops"],
                 rows[n]["ops"])):
            if got != want:
                bad += 1
                print(f"{n}: census counted {got:,} {what}, the scenario "
                      f"{want:,}")
    return 1 if bad else 0
