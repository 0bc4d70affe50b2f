"""The per-layer ledger: what one traced pass measures, layer by layer.

Everything is measured from outside the program, through public
entry points:

* counting wrappers on ``Simulator.process`` / ``Simulator.call_at``,
  ``QueuePair.post_send*``, ``ExpressState.post*`` and
  ``ServicePlane.submit*``;
* simulated-time spans keyed by the ``WorkRequest`` they serve:
  ``tenancy.queue`` (plane submit -> ``QueuePair.post_send``, i.e.
  admission + WFQ wait) and ``verbs.op`` (post -> the completion's
  ``timestamp_ns``, read after the run, so no callback is added to any
  event);
* cProfile self time (``tottime``) folded by source path into layers.
  Builtins are charged to the layer of the code that called them, so the
  engine's heap operations count as ``sim``.

The wrappers only count and record; they never touch the schedule, which
``run.py`` proves by comparing a traced rep's output digest and event
count with an untraced rep's.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
from collections import Counter

import repro
from repro.sim import Simulator, percentiles
from repro.tenancy import ServicePlane
from repro.verbs import QueuePair
from repro.verbs.express import ExpressState

__all__ = ["LAYERS", "Ledger", "layer_of"]

#: Layers in report order; ``other`` is everything outside ``repro``
#: (the interpreter, numpy, the benchmark's own drivers, ``repro.core``).
LAYERS = ("sim", "hw", "memory", "verbs", "verbs.express", "tenancy", "load",
          "apps", "workloads", "other")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_PACKAGES = frozenset(LAYERS) - {"verbs.express", "other"}


@functools.lru_cache(maxsize=None)
def layer_of(path: str) -> str:
    """The layer a source file belongs to (``other`` outside ``repro``)."""
    path = os.path.abspath(path)
    if not path.startswith(_REPRO_DIR):
        return "other"
    rel = path[len(_REPRO_DIR):].replace(os.sep, "/")
    if rel == "verbs/express.py":
        return "verbs.express"
    top = rel.split("/", 1)[0]
    return top if top in _PACKAGES else "other"


class Ledger:
    """Counting wrappers + spans + cProfile for one traced rep."""

    def __init__(self):
        #: Calls counted at the wrapped entry points ("process",
        #: "call_at"; "express" counts WRs the express lane booked).
        self.calls: Counter = Counter()
        #: id(wr) -> (wr, submit ns); the wr is kept so ids stay unique.
        self.submits: dict[int, tuple] = {}
        #: (wr, post ns, completion event, qp id) per WR posted.
        self.posts: list[tuple] = []
        self.self_s: dict[str, float] = {}
        self.profiled_s = 0.0
        self._saved: list[tuple] = []

    # -- wrappers ---------------------------------------------------------
    def install(self) -> "Ledger":
        """Wrap the public entry points (before the rig is built)."""
        led = self

        def wrap(cls, name, make):
            orig = getattr(cls, name)
            self._saved.append((cls, name, orig))
            setattr(cls, name, functools.wraps(orig)(make(orig)))

        def count(key, n=lambda args: 1):
            def make(orig):
                def w(obj, *args, **kwargs):
                    led.calls[key] += n(args)
                    return orig(obj, *args, **kwargs)
                return w
            return make

        def post_send(orig):
            def w(qp, wr):
                done = orig(qp, wr)
                led.posts.append((wr, qp.sim.now, done, qp.qp_id))
                return done
            return w

        def post_send_batch(orig):
            def w(qp, wrs):
                events = orig(qp, wrs)
                now = qp.sim.now
                led.posts.extend((wr, now, ev, qp.qp_id)
                                 for wr, ev in zip(wrs, events))
                return events
            return w

        def submit(orig):
            def w(plane, qp, wr):
                led.submits[id(wr)] = (wr, plane.sim.now)
                return orig(plane, qp, wr)
            return w

        def submit_batch(orig):
            def w(plane, qp, wrs):
                now = plane.sim.now
                for wr in wrs:
                    led.submits[id(wr)] = (wr, now)
                return orig(plane, qp, wrs)
            return w

        wrap(Simulator, "process", count("process"))
        wrap(Simulator, "call_at", count("call_at"))
        wrap(ExpressState, "post", count("express"))
        # post_batch(qp, wrs, events, prev): one count per WR.
        wrap(ExpressState, "post_batch", count("express", lambda a: len(a[1])))
        wrap(QueuePair, "post_send", post_send)
        wrap(QueuePair, "post_send_batch", post_send_batch)
        wrap(ServicePlane, "submit", submit)
        wrap(ServicePlane, "submit_batch", submit_batch)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._saved:
            cls, name, orig = self._saved.pop()
            setattr(cls, name, orig)

    # -- host self time ---------------------------------------------------
    def profile(self, fn) -> None:
        """Run ``fn()`` under cProfile and fold self time into layers."""
        prof = cProfile.Profile()
        prof.runcall(fn)
        stats = pstats.Stats(prof)
        folded = dict.fromkeys(LAYERS, 0.0)
        for (path, _line, _func), (_cc, _nc, tt, _ct, callers) in \
                stats.stats.items():
            if path != "~":
                folded[layer_of(path)] += tt
                continue
            # A builtin: charge each caller's share to the caller's layer.
            rest = tt
            for (cpath, _cl, _cf), cstat in callers.items():
                share = cstat[2]
                folded[layer_of(cpath) if cpath != "~" else "other"] += share
                rest -= share
            folded["other"] += rest
        self.self_s = folded
        self.profiled_s = stats.total_tt

    # -- results ----------------------------------------------------------
    def spans(self) -> tuple[list, list]:
        """(tenancy.queue, verbs.op) spans as (start ns, end ns, qp, idx)."""
        queue, ops = [], []
        for idx, (wr, t_post, done, qp_id) in enumerate(self.posts):
            sub = self.submits.get(id(wr))
            if sub is not None:
                queue.append((sub[1], t_post, qp_id, idx))
            if done.triggered:
                ops.append((t_post, done.value.timestamp_ns, qp_id, idx))
        return queue, ops

    def metrics(self, wrs_completed: int) -> dict:
        """Per-layer numbers of the traced rep (see README.md)."""
        out = {}
        total = sum(self.self_s.values())
        for layer in LAYERS:
            s = self.self_s.get(layer, 0.0)
            out[f"{layer}.self_s"] = s
            out[f"{layer}.self_share"] = s / total if total else 0.0
        out["profiled_s"] = self.profiled_s
        per = wrs_completed or 1
        out["sim.processes_per_op"] = self.calls["process"] / per
        out["sim.call_at_per_op"] = self.calls["call_at"] / per
        posted = len(self.posts)
        out["verbs.express_frac"] = (self.calls["express"] / posted
                                     if posted else 0.0)
        queue, ops = self.spans()
        for name, spans in (("tenancy.queue", queue), ("verbs.op", ops)):
            durs = sorted(end - start for start, end, _q, _i in spans)
            p50, p99 = percentiles(durs, [50, 99])
            out[f"{name}_p50_us"] = p50 / 1e3
            out[f"{name}_p99_us"] = p99 / 1e3
        return out

    def chrome_trace(self, process_name: str) -> dict:
        """Every span as a Chrome-trace complete event.  ``ts``/``dur``
        are simulated time in microseconds (ns resolution); spans of one
        WR share ``args.wr``; ``tid`` is the QP id."""
        queue, ops = self.spans()
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": process_name}}]
        for name, cat, spans in (("tenancy.queue", "tenancy", queue),
                                 ("verbs.op", "verbs", ops)):
            events.extend({"name": name, "cat": cat, "ph": "X", "pid": 1,
                           "tid": qp_id, "ts": start / 1e3,
                           "dur": (end - start) / 1e3, "args": {"wr": idx}}
                          for start, end, qp_id, idx in spans)
        return {"traceEvents": events, "displayTimeUnit": "ns"}
