"""Open-loop injection: fire requests on the arrival clock, not the
completion clock.

An :class:`OpenLoopGenerator` walks a precomputed arrival timeline
(:mod:`repro.workloads.arrivals`) as one chain of ``sim.call_tail``
wake-ups and steps each due request's generator inline — offered load is
independent of service progress, so when the plane saturates, queues
grow, deadlines lapse, and the shed rate (not the injection rate) gives.
That is the behaviour closed-loop clients structurally cannot show: they
self-throttle to the service rate and the knee never appears.

No request gets a :class:`~repro.sim.Process`: a process costs a boot
event and a finish event that nobody here waits on.  The driver resumes
a request from the callbacks of whatever it yields, under the same rules
and in the same dispatch order as a process, so every simulated number
is what a process per request would produce.

Requests report one of four outcomes (:class:`~repro.load.frontdoor.
KvResult` semantics): "hit" / "ok" count as delivered and contribute a
latency sample; "shed" and "error" are tallied separately.  Latency is
arrival-to-completion, so queueing delay — the tenant-visible number —
is included.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Generator, Optional, Sequence

from repro.sim import Event, SimulationError, Simulator
from repro.sim.stats import percentiles

__all__ = ["OpenLoopGenerator", "drain_open_loop", "find_knee"]


class OpenLoopGenerator:
    """Starts ``request_fn(i)`` at absolute time ``times_ns[i]``.

    ``times_ns`` must be non-decreasing and must not begin before the
    current simulated time.  ``request_fn(i) -> Generator`` yields what a
    process may yield (events, non-negative float delays) and returns an object
    with an ``outcome`` attribute ("hit" | "ok" | "shed" | "error") or a
    bare outcome string.
    """

    def __init__(self, sim: Simulator, request_fn: Callable[[int], Generator],
                 times_ns: Sequence[float], name: str = "openloop"):
        self.sim = sim
        self.request_fn = request_fn
        self.times_ns = times_ns
        self.name = name
        self.offered = 0
        self.delivered = 0
        self.hits = 0
        self.sheds = 0
        self.errors = 0
        self.latencies: array = array("d")
        #: Index of the next request not yet started.
        self._next = 0
        #: Requests not yet finished, started or not.
        self._pending = 0
        #: Succeeds once every request has finished; None until start().
        self._idle: Optional[Event] = None

    # -- injection ------------------------------------------------------------
    def start(self) -> None:
        """Begin injecting (call before ``sim.run``)."""
        if self._idle is not None:
            raise RuntimeError(f"{self.name}: already started")
        sim = self.sim
        prev = sim.now
        for i, t in enumerate(self.times_ns):
            t = float(t)
            if not t >= prev:  # also rejects NaN
                what = f"arrival {i - 1}" if i else "sim.now"
                raise ValueError(
                    f"{self.name}: arrival {i} at {t} ns precedes {what} "
                    f"({prev} ns); times_ns must be non-decreasing from "
                    "sim.now")
            prev = t
        self._idle = sim.event()
        self._pending = len(self.times_ns)
        if not self._pending:
            self._idle.succeed()
            return
        now = sim.now
        sim.call_tail(now + (float(self.times_ns[0]) - now), self._arrive)

    def _arrive(self, _ev: Event) -> None:
        # Book the next distinct instant first, then start everything due
        # now in index order: the injector process this replaces pushed
        # its next sleep before the spawned requests' boots ran.
        sim = self.sim
        now = sim.now
        times = self.times_ns
        first = self._next
        last = first + 1
        while last < len(times):
            delay = float(times[last]) - now
            if delay > 0:
                sim.call_tail(now + delay, self._arrive)
                break
            last += 1
        self._next = last
        self.offered += last - first
        request_fn = self.request_fn
        for i in range(first, last):
            _Request(self, i, request_fn(i), now)(None)

    def _finish(self, i: int, t0: float, result: Any) -> None:
        outcome = getattr(result, "outcome", result)
        if outcome in ("hit", "ok"):
            self.delivered += 1
            if outcome == "hit":
                self.hits += 1
            self.latencies.append(self.sim.now - t0)
        elif outcome == "shed":
            self.sheds += 1
        elif outcome == "error":
            self.errors += 1
        else:
            raise ValueError(
                f"{self.name}: request {i} returned unknown outcome "
                f"{outcome!r}")
        self._pending -= 1
        if not self._pending:
            self._idle.succeed()

    # -- draining -------------------------------------------------------------
    def drain(self) -> None:
        """Run the simulation until the timeline is fully injected and
        every started request has finished."""
        if self._idle is None:
            raise RuntimeError(f"{self.name}: start() before drain()")
        self.sim.run(until=self._idle)

    # -- results --------------------------------------------------------------
    @property
    def shed_rate(self) -> float:
        return self.sheds / self.offered if self.offered else 0.0

    def latency_percentiles(self) -> dict[str, float]:
        xs = sorted(self.latencies)
        p50, p99, p999 = percentiles(xs, [50, 99, 99.9])
        return {"p50": p50, "p99": p99, "p999": p999}


class _Request:
    """One in-flight request: drives its generator until it parks on a
    wake-up or finishes, accepting the yields ``Process._resume``
    accepts.  The object itself is the ``call_tail`` target of a bare
    delay and the callback of an awaited event, so a wake builds no
    closure."""

    __slots__ = ("owner", "i", "gen", "t0")

    def __init__(self, owner: OpenLoopGenerator, i: int, gen: Generator,
                 t0: float):
        self.owner = owner
        self.i = i
        self.gen = gen
        self.t0 = t0

    def __call__(self, ev: Optional[Event]) -> None:
        """Resume: ``ev`` is None after a bare delay, else the awaited
        event, whose value (or exception) goes into the generator."""
        if ev is None:
            value, ok = None, True
        else:
            value, ok = ev._value, ev._ok
        gen = self.gen
        sim = self.owner.sim
        while True:
            try:
                target = gen.send(value) if ok else gen.throw(value)
            except StopIteration as stop:
                self.owner._finish(self.i, self.t0, stop.value)
                return
            except Exception as exc:
                raise SimulationError(
                    f"unhandled error in request {self.owner.name}.r"
                    f"{self.i}") from exc
            # call_tail clamps a past instant, so a negative delay must not
            # reach it: a process fails loudly on one.
            if type(target) is float and target >= 0:
                sim.call_tail(sim.now + target, self)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"request {self.owner.name}.r{self.i} yielded "
                    f"{target!r}; requests must yield Event instances or "
                    "non-negative float delays")
            if not target._processed:  # a cancelled event drops the resume
                target.add_callback(self)
                return
            value, ok = target._value, target._ok


def drain_open_loop(gens: Sequence[OpenLoopGenerator]) -> None:
    """Drain several generators sharing one simulator (their timelines
    ran concurrently; the run ends when the last one goes idle)."""
    for g in gens:
        g.drain()


#: Delivered/offered ratio below which a point is past the knee.
KNEE_TOLERANCE = 0.95


def find_knee(offered: Sequence[float],
              delivered: Sequence[float]) -> Optional[int]:
    """Index of the saturation knee: the first offered rate whose
    delivered throughput falls below :data:`KNEE_TOLERANCE` × offered.
    None if the service kept up everywhere."""
    if len(offered) != len(delivered):
        raise ValueError("offered and delivered must have the same length")
    for i, (x, y) in enumerate(zip(offered, delivered)):
        if y < KNEE_TOLERANCE * x:
            return i
    return None
