"""Core discrete-event simulation engine.

The engine is deliberately small: an event heap ordered by
``(time, priority, sequence)``, :class:`Event` objects with success/failure
callbacks, and :class:`Process` objects that drive Python generators.  A
process yields an :class:`Event` and is resumed with the event's value once
it fires; yielding another process waits for it to finish; raising inside a
generator fails the process event and propagates to waiters.

Design notes
------------
* Time is a float in **nanoseconds**.  The engine itself is unit-agnostic,
  but every model in :mod:`repro.hw` assumes nanoseconds.
* Events fire in deterministic order: ties are broken by a monotonically
  increasing sequence number, so a given seed always produces the same
  schedule.
* Errors raised inside a process that nobody waits on re-raise out of
  :meth:`Simulator.run` — silent failure would make cost-model bugs look
  like performance results.

Fast-path design (see docs/PERFORMANCE.md)
------------------------------------------
The engine is the replay loop under every figure/bench sweep, so its
per-event constant factor is the repository's hottest number.  The
optimizations below are all *schedule-preserving*: they change how fast an
event is dispatched, never which event fires next.

* **Fused dispatch** — :meth:`Simulator.run` pops and dispatches events in
  one inlined loop (no per-event ``step()`` call, no ``_run_callbacks``
  call), the same loop for draining, ``until=T`` and ``until=event``;
  :meth:`step` remains for single-stepping.
* **Cancellation tombstones** — :meth:`Event.cancel` marks an event dead in
  O(1) and frees its callback list immediately; the heap entry stays put
  and is skipped when it surfaces.  No heap rebuilds, no
  callbacks holding dead closures alive across long sweeps.
* **Slotted everything** — every class here (including the Simulator)
  declares ``__slots__``; event churn never allocates ``__dict__``s.
* **Bare-delay lane** — a process may ``yield 12.5`` instead of
  ``yield sim.timeout(12.5)``: the engine parks it on a reusable per-
  process ``_Sleep`` marker and resumes the generator straight from the
  dispatch loop, skipping Event construction and callback lists
  entirely.  Sequence numbers are allocated at the same moments,
  so the two spellings produce bit-identical schedules.
* **In-place dispatch** — every trigger (``Event.succeed``/``fail``,
  timeouts, ``call_at``, ``call_tail``, interrupts, process boots and
  bare-delay sleeps) schedules its ``(when, priority, seq, target)``
  entry through one method, :meth:`Simulator._park`.  Outside ``run()``
  it pushes.  Inside, a one-slot tail keeps the smallest entry the
  current dispatch has scheduled; an entry it displaces (or that loses
  to it) is pushed under its own seq.  Each loop iteration then takes
  ``heappushpop(heap, tail)``, which returns the tail itself exactly
  when its key beats ``heap[0]`` — that is, exactly when ``heappop``
  would have returned it after a push.  So an entry runs in place only
  when it is the next dispatch anyway; the heap holds the same keys and
  pops in the same order, and outcomes are identical by construction.
  An in-place dispatch is traced and checked like any other
  (``trace_dispatch``, ``check.on_dispatch``), so tracing never changes
  which code runs; it counts in ``events_in_place``, not in
  ``events_processed``.

The enqueue order — one global ``_seq`` incremented per scheduled event,
keys ``(now + delay, priority, seq)`` — is untouched by all of the above,
which is what the schedule-identity tests in ``tests/test_perf_harness.py``
pin down.
"""

from __future__ import annotations

import gc
import heapq
from heapq import heappop, heappush, heappushpop
from typing import Any, Callable, Generator, Iterable, Optional

try:  # CPython: exact refcounts show a timer nobody else holds.
    from sys import getrefcount as _refs
except ImportError:  # pragma: no cover - non-refcounted runtimes
    def _refs(_obj: Any) -> int:
        return 1 << 30  # nothing ever looks unreferenced

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for engine-level misuse (double trigger, yielding non-events)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event priorities: URGENT events (process resumptions) run before NORMAL
# events scheduled at the same timestamp, mirroring SimPy semantics.
URGENT = 0
NORMAL = 1

#: ``Simulator._tail`` while ``run()`` dispatches and no entry is parked.
#: Outside ``run()`` the slot is ``None`` and ``_park`` always pushes.
_OPEN = ()


def _bad_yield(proc: "Process", target: Any) -> "SimulationError":
    return SimulationError(
        f"process {proc.name!r} yielded {target!r}; processes must yield "
        "Event instances or bare non-negative float delays")


class _Sleep:
    """Heap marker for a process suspended on a bare ``yield <delay>``.

    The bare-delay fast lane: a generator may yield a plain non-negative
    float instead of ``sim.timeout(delay)`` when it only wants to pause —
    no carried value, no shared waiters, no cancellation handle.  The
    engine then skips the whole Event life cycle: one reusable marker per
    process is scheduled as the heap entry itself and the dispatch loop
    resumes the generator directly — no callback list, no
    ``_processed`` bookkeeping.  The scheduling key is allocated exactly
    like a ``Timeout``'s ``(now + delay, NORMAL, next seq)`` at the same
    moment, so schedules are bit-identical to the Timeout spelling — the
    event is just dispatched much more cheaply.

    Process bootstrap rides the same marker (with ``URGENT`` priority,
    matching the old boot event's key) so starting a process allocates
    nothing either.

    ``proc`` is detached (set to ``None``) when the sleeper is
    interrupted; the stale heap entry then reads as cancelled and is
    skipped like any tombstone.
    """

    __slots__ = ("proc",)

    #: Read by ``Process._resume`` when ``step()`` resumes a sleeper.
    _ok = True
    _value: Any = None

    def __init__(self, proc: "Process"):
        self.proc: Optional["Process"] = proc

    @property
    def _cancelled(self) -> bool:
        # peek()/step() probe heap entries uniformly; a detached or
        # superseded sleep marker behaves like a tombstoned Timeout.
        p = self.proc
        return p is None or p._waiting_on is not self


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *pending*, is *triggered* once scheduled onto the heap,
    and becomes *processed* after its callbacks run.  ``succeed``/``fail``
    trigger it immediately (at the current simulation time).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "_cancelled")

    _PENDING = object()

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = Event._PENDING
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._cancelled = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def ok(self) -> bool:
        if self._value is Event._PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self._triggered or self._cancelled:
            raise SimulationError(f"{self!r} already triggered")
        if not delay >= 0:
            raise ValueError(f"invalid succeed() delay: {delay}")
        self._triggered = True
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._park((sim.now + delay, NORMAL, seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiters will see ``exception`` raised."""
        if self._triggered or self._cancelled:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if not delay >= 0:
            raise ValueError(f"invalid fail() delay: {delay}")
        self._triggered = True
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._park((sim.now + delay, NORMAL, seq, self))
        return self

    # -- cancellation -------------------------------------------------------
    def cancel(self) -> bool:
        """Withdraw the event: it will never fire and never run callbacks.

        O(1) tombstone scheme: any heap entry stays where it is and is
        skipped when it reaches the top — no heap rebuild.
        The callback list is freed *immediately*, so closures (and the
        processes/buffers they capture) are reclaimable right away instead
        of living until the dead entry would have fired — the difference
        between a flat and a growing RSS on long timer-heavy sweeps.

        Returns ``True`` if the event was cancelled, ``False`` if it had
        already been processed (too late) or cancelled before.  Intended
        for timer-like events (timeouts, pending resource grants); do not
        cancel a :class:`Process` someone may still wait on — interrupt it.
        """
        if self._processed or self._cancelled:
            return False
        self._cancelled = True
        self.callbacks = None  # free waiter closures NOW, not at fire time
        self.sim.events_cancelled += 1
        return True

    # -- internal ---------------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for cb in callbacks:
                cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event fires.

        If the event has already been processed the callback runs
        immediately — this keeps "wait on a finished process" race-free.
        On a cancelled event the callback is dropped: it will never run.
        """
        if self.callbacks is None:
            if not self._cancelled:
                cb(self)
        else:
            self.callbacks.append(cb)

    def discard_callback(self, cb: Callable[["Event"], None]) -> None:
        """Unregister one occurrence of ``cb`` (no-op if absent/processed)."""
        if self.callbacks:
            try:
                self.callbacks.remove(cb)
            except ValueError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled" if self._cancelled
            else "processed" if self._processed
            else "triggered" if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation.

    Prefer :meth:`Simulator.timeout`, which builds one without the
    constructor call chain (identical semantics).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # NaN fails too
            raise ValueError(f"negative or NaN timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        sim._seq = seq = sim._seq + 1
        sim._park((sim.now + delay, NORMAL, seq, self))


class Process(Event):
    """Drives a generator; completes (as an event) with its return value.

    Yield targets inside the generator must be :class:`Event` instances
    (timeouts, resource grants, other processes, ``AllOf``/``AnyOf``...)
    or a bare non-negative float (a negative or NaN one fails the run like
    any bad yield) — a pure delay equivalent to
    ``sim.timeout(delay)`` but dispatched through the cheap
    :class:`_Sleep` lane (same schedule, no Event object).
    """

    __slots__ = ("_generator", "_waiting_on", "name", "_bound_resume",
                 "_send", "_sleep")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        try:
            # Doubles as the generator type check and the hot-path cache:
            # _resume calls this bound method once per resumption.
            self._send = generator.send
        except AttributeError:
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            ) from None
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap through the bare-delay marker: the dispatch loop sends
        # the first ``None`` into the generator directly.  Same
        # ``(now, URGENT, seq)`` key the old boot event used — schedules
        # are unchanged, but starting a process allocates nothing.
        s = self._sleep = _Sleep(self)
        self._waiting_on: Any = s
        sim._seq = seq = sim._seq + 1
        sim._park((sim.now, URGENT, seq, s))
        # One bound method for the process's whole life: every yield target
        # gets this same object appended, instead of materializing a fresh
        # bound method per resumption.
        self._bound_resume = self._resume
        # Both self-references (this one and the marker's ``proc``) are
        # dropped on every path that ends the process: ``run()`` pauses
        # the cyclic collector, so a finished process must be acyclic to
        # be freed by refcount rather than live until ``run()`` returns.

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return  # already finished; interrupt is a no-op
        interrupter = Event(self.sim)
        interrupter._triggered = True
        interrupter._ok = False
        interrupter._value = Interrupt(cause)
        # Detach from whatever we were waiting on: drop our resume callback
        # so the abandoned event no longer pins this process (generator
        # frame and all) in memory, and tombstone the event outright when
        # we were its only consumer.  Pre-fix, the dead entry kept its
        # callback list until it fired and every stale wakeup still ran
        # ``_resume`` — a leak *and* wasted dispatch on long sweeps.
        waited = self._waiting_on
        self._waiting_on = None
        if type(waited) is _Sleep:
            # Bare-delay sleeper: detach the marker so the stale heap
            # entry reads as cancelled and is skipped in O(1) — the exact
            # analogue of the solitary-Timeout tombstone below, with the
            # same events_cancelled accounting.
            waited.proc = None
            self._sleep = None  # next bare yield allocates a fresh marker
            self.sim.events_cancelled += 1
        elif waited is not None and waited.callbacks is not None:
            waited.discard_callback(self._resume)
            # A solitary engine-owned timer (sole refs: here, the refcount
            # probe, and its heap or tail-slot entry) can never be
            # observed again — tombstone it so the dispatch loop skips it
            # in O(1).
            if (not waited.callbacks and type(waited) is Timeout
                    and _refs(waited) <= 3):
                waited.cancel()
        self.sim._enqueue(interrupter, 0.0, URGENT)
        interrupter.add_callback(self._resume_interrupt)

    def _resume_interrupt(self, trigger: Event) -> None:
        if self._triggered:
            return
        import inspect
        if inspect.getgeneratorstate(self._generator) == "GEN_CREATED":
            # The generator never started: there is no code to observe the
            # Interrupt, so terminate the process cleanly instead of
            # throwing at its first line.
            self._generator.close()
            self._waiting_on = None
            self._sleep = self._bound_resume = None
            self.succeed(None)
            return
        self._waiting_on = trigger
        self._resume(trigger)

    def _resume(self, trigger: Event) -> None:
        # Every resumption outside run()'s inline sleeper branch: event
        # callbacks, step()'s sleepers and interrupt delivery (a failed
        # trigger throws).  The single identity test also covers a
        # finished process (its _waiting_on is always None once
        # triggered) and wakeups from events abandoned after an interrupt.
        if self._waiting_on is not trigger:
            return
        self._waiting_on = None
        try:
            if trigger._ok:
                target = self._send(trigger._value)
            else:
                target = self._generator.throw(trigger._value)
        except StopIteration as stop:
            self._sleep = self._bound_resume = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._sleep = self._bound_resume = None
            if not self.callbacks:
                # Nobody is waiting: surface the crash from Simulator.run().
                self.sim._crash(exc, self)
                self._triggered = True
                self._ok = False
                self._value = exc
                return
            # Drop this frame from the traceback the waiter sees: it holds
            # ``self``, which holds the exception as its value — a cycle.
            self.fail(exc.with_traceback(exc.__traceback__.tb_next))
            return
        if type(target) is float and target >= 0.0:
            # Bare-delay fast lane (see _Sleep): schedule-identical to
            # ``yield sim.timeout(target)`` at a fraction of the cost.
            s = self._sleep
            if s is None:
                s = self._sleep = _Sleep(self)
            self._waiting_on = s
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            sim._park((sim.now + target, NORMAL, seq, s))
            return
        if isinstance(target, Event):
            self._waiting_on = target
            # Inlined add_callback: a live callback list (the overwhelmingly
            # common case) is a plain append; a consumed list means the
            # target is already processed (immediate resume) or cancelled
            # (drop) — delegate those to the full method.
            cbs = target.callbacks
            if cbs is not None:
                cbs.append(self._bound_resume)
            else:
                target.add_callback(self._bound_resume)
            return
        self.sim._crash(_bad_yield(self, target), self)


class AnyOf(Event):
    """Fires when the first of ``events`` fires.

    Value is a dict ``{event: value}`` of the events fired so far.  A failed
    child fails the condition.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self.succeed({e: e._value for e in self.events if e._processed or e is ev})


class AllOf(Event):
    """Fires when every one of ``events`` has fired.

    Value is a dict ``{event: value}``.  A failed child fails the condition.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({e: e._value for e in self.events})


class Simulator:
    """Owns simulated time and the pending-event heap.

    ``events_processed`` / ``events_cancelled`` count dispatched and
    tombstoned events over the simulator's lifetime, and
    ``events_in_place`` the dispatches that came from the tail slot
    without a heap round trip (:meth:`_park`).  The perf harness
    (:mod:`repro.bench.perf`) aggregates the class-wide
    ``Simulator.total_events`` (and ``tally.in_place``) to compute
    events/sec across the many short-lived simulators a bench sweep
    builds; both are written once per ``run()``/``step()`` call, never
    per event (a class-attribute write deoptimizes attribute access on
    every instance of the class).
    """

    __slots__ = ("now", "_heap", "_seq", "_crashed", "events_processed",
                 "events_cancelled", "events_in_place", "_tail",
                 "trace_dispatch", "check",
                 "express", "cqes")

    #: Class-wide dispatched-event counter (monotonic across instances).
    total_events: int = 0

    def __init__(self):
        self.now: float = 0.0
        #: Pending entries ``(when, priority, seq, target)``; ``target``
        #: is an :class:`Event`, a :class:`_Sleep` marker or a bare
        #: :meth:`call_tail` function.
        self._heap: list[tuple] = []
        self._seq = 0
        self._crashed: Optional[tuple[BaseException, Optional[Process]]] = None
        self.events_processed = 0
        self.events_cancelled = 0
        self.events_in_place = 0
        #: The smallest entry the running dispatch has scheduled, ``_OPEN``
        #: when ``run()`` is dispatching without one, ``None`` outside
        #: ``run()``.
        self._tail: Optional[tuple] = None
        #: Optional hook ``f(time, priority, seq)`` invoked per dispatched
        #: event — the schedule-identity tests record timelines through it.
        #: Leave ``None`` in production runs.
        self.trace_dispatch: Optional[Callable[[float, int, int], None]] = None
        #: Invariant sanitizer slot (see :mod:`repro.check`).  ``None`` by
        #: default: every instrumented layer reads this attribute and the
        #: disabled cost is a single branch per hook site.  Bound to a
        #: local at ``run()`` entry — install before running.
        self.check = None
        #: Closed-form verbs fast lane (repro.verbs.express.ExpressState),
        #: attached by Cluster on eligible topologies.  ``None`` = every op
        #: steps through the generator pipeline.
        self.express = None
        #: Identity index of the CQEs queued in this simulator's
        #: completion queues, ``id(cqe) ->`` a weak reference to the
        #: queue; owned by :mod:`repro.verbs.cq`, which reaps through it.
        self.cqes: dict = {}

    # -- event construction ------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` ns from now (fast path)."""
        if not delay >= 0:  # NaN fails too
            raise ValueError(f"negative or NaN timeout delay: {delay}")
        ev = Timeout.__new__(Timeout)
        ev.sim = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._triggered = True
        ev._processed = False
        ev._cancelled = False
        ev.delay = delay
        self._seq = seq = self._seq + 1
        self._park((self.now + delay, NORMAL, seq, ev))
        return ev

    def _clamp(self, when: float) -> float:
        """A ``when`` that is not at or after ``now``: a finite past
        instant (float dust from long arithmetic chains) becomes ``now``;
        NaN is refused."""
        if when != when:
            raise ValueError("cannot schedule a wake at NaN")
        return self.now

    def call_at(self, when: float, fn: Callable[["Event"], None]) -> Event:
        """Fused wake-up: run ``fn(event)`` once at absolute time ``when``.

        An Event is pre-marked triggered and scheduled directly at
        ``when`` (absolute, not ``now + delay`` — closed-form timelines are
        computed as absolute instants and must not pick up float error
        from a round trip through a delta).  The dispatch loop handles it
        as an ordinary Event; ``event.cancel()`` tombstones it in O(1), so
        a timer can be re-armed cheaply.  Keys are allocated from the same
        global ``_seq`` as every other event, preserving deterministic tie
        order.  A caller that drops the handle uses :meth:`call_tail`.
        """
        if not when >= self.now:
            when = self._clamp(when)
        self._seq = seq = self._seq + 1
        ev = self.event()
        ev._triggered = True
        ev._value = None
        ev.callbacks.append(fn)
        self._park((when, NORMAL, seq, ev))
        return ev

    def call_tail(self, when: float, fn: Callable[[None], None]) -> None:
        """``call_at(when, fn)`` without building an Event.

        ``fn`` itself is the scheduled target, with ``call_at``'s key
        ``(when, NORMAL, seq)``; the loop calls ``fn(None)``.  Nothing can
        cancel it.
        """
        if not when >= self.now:
            when = self._clamp(when)
        self._seq = seq = self._seq + 1
        self._park((when, NORMAL, seq, fn))

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _park(self, entry: tuple) -> None:
        """Schedule ``entry``: the one path every trigger takes.

        Outside ``run()`` it is pushed.  Inside, the tail slot keeps the
        smallest entry the current dispatch has scheduled and the other
        one of the two is pushed under its own seq; ``run()`` then lets
        ``heappushpop`` decide whether the tail is the next dispatch.
        """
        tail = self._tail
        if tail:
            if entry < tail:
                self._tail = entry
                entry = tail
            heappush(self._heap, entry)
        elif tail is None:
            heappush(self._heap, entry)
        else:
            self._tail = entry

    def _unpark(self) -> None:
        """Push a parked tail, so the heap alone holds what is pending."""
        tail = self._tail
        if tail:
            self._tail = _OPEN
            heappush(self._heap, tail)

    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        self._seq = seq = self._seq + 1
        self._park((self.now + delay, priority, seq, event))

    def _crash(self, exc: BaseException, proc: Optional[Process]) -> None:
        if self._crashed is None:
            self._crashed = (exc, proc)

    # -- execution ----------------------------------------------------------
    def _raise_crash(self) -> None:
        exc, proc = self._crashed  # type: ignore[misc]
        self._crashed = None
        name = proc.name if proc is not None else "?"
        raise SimulationError(f"unhandled error in process {name!r}") from exc

    def step(self) -> None:
        """Process the next event on the heap (single-step debugging aid).

        Cancelled events are skipped in O(1) without advancing time.
        Nothing runs in place here: outside ``run()`` every trigger
        pushes, and a tail parked by a running dispatch is pushed first.
        """
        self._unpark()
        heap = self._heap
        while True:
            when, _prio, _seq, target = heappop(heap)
            if not _dead(target):
                break
            if not heap:
                return
        if when < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = when
        if self.check is not None:
            self.check.on_dispatch(when)
        if type(target) is _Sleep:
            target.proc._resume(target)
        elif isinstance(target, Event):
            target._run_callbacks()
        else:
            target(None)
        self.events_processed += 1
        Simulator.total_events += 1
        if self._crashed is not None:
            self._raise_crash()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the heap drains, time ``until`` passes, or event fires.

        Returns the event's value when ``until`` is an :class:`Event`.
        """
        stop: Any = _NEVER
        horizon = float("inf")
        if isinstance(until, Event):
            stop = until
            # Mark the event as awaited so a failing process routes its
            # exception here instead of treating it as unhandled.
            stop.add_callback(_awaited)
        elif until is not None:
            horizon = float(until)
            if not horizon >= self.now:
                raise ValueError(
                    f"until={horizon} is in the past (now={self.now})")

        # Fused dispatch loop: everything per-event is inlined (pop,
        # dispatch) with hot globals/attributes bound to locals.
        # This is THE hot loop of the repository; see docs/PERFORMANCE.md
        # before touching it.
        heap = self._heap
        pop = heappop
        push = heappush
        pushpop = heappushpop
        trace = self.trace_dispatch
        chk = self.check
        dispatched = 0
        in_place = 0
        # Open the tail slot (_park pushes while it is None).  A tail
        # parked by an enclosing run() goes to the heap first.
        outer = self._tail
        self._unpark()
        self._tail = _OPEN
        # Pause the cyclic collector for the duration of the dispatch loop:
        # event churn allocates heavily, so generational scans are pure
        # overhead mid-run.  Collection timing never influences schedules,
        # so this is trivially determinism-safe; the previous gc state is
        # restored on exit and any cycles are reaped at the next threshold.
        # The rule that makes this safe for memory: every per-op object
        # (a ``Process``, an ``ExpressOp``, their events) must be acyclic
        # by the time its op ends, so refcounting frees it mid-run.  A
        # cycle left behind lives until this loop returns; the perf gate
        # counts them as ``cycles_per_op`` (docs/PERFORMANCE.md).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            # One loop for every mode: the horizon is +inf when there is
            # none and ``stop`` never processes when there is no stop
            # event, so both exits cost one test each per dispatch (at
            # the bottom: CPython 3.11 ran this loop ~2x slower with the
            # stop test in the ``while`` header).  Each iteration takes
            # the tail the previous dispatch parked through heappushpop:
            # it comes back exactly when its key beats heap[0], and runs
            # in place.
            if stop._processed:
                pass  # already delivered before run() was entered
            else:
                while True:
                    tail = self._tail
                    if tail:
                        self._tail = _OPEN
                        entry = pushpop(heap, tail)
                    elif heap:
                        entry = pop(heap)
                    elif stop is _NEVER:
                        break
                    else:
                        raise SimulationError(
                            "simulation ran out of events before the awaited "
                            "event fired (deadlock?)"
                        )
                    when, _prio, _seq, target = entry
                    if when > horizon:
                        push(heap, entry)
                        break
                    # No "scheduled in the past" test: _park's callers
                    # refuse NaN and negative delays and clamp past
                    # instants, so every entry lies at or after ``now``.
                    if type(target) is _Sleep:
                        # Bare-delay fast lane: resume the sleeper in place —
                        # no callbacks.
                        p = target.proc
                        if p is None or p._waiting_on is not target:
                            continue  # interrupted sleeper: tombstone
                        self.now = when
                        if trace is not None:
                            trace(when, _prio, _seq)
                        if chk is not None:
                            chk.on_dispatch(when)
                        if entry is tail:
                            in_place += 1
                        else:
                            dispatched += 1
                        p._waiting_on = None
                        try:
                            nxt = p._send(None)
                        except StopIteration as fin:
                            p._sleep = p._bound_resume = None
                            p.succeed(fin.value)
                        except BaseException as exc:
                            p._sleep = p._bound_resume = None
                            if not p.callbacks:
                                self._crash(exc, p)
                                p._triggered = True
                                p._ok = False
                                p._value = exc
                            else:
                                p.fail(exc.with_traceback(
                                    exc.__traceback__.tb_next))
                        else:
                            if type(nxt) is float and nxt >= 0.0:
                                # _park inlined: the sleeper's own re-push is
                                # the hottest scheduling site there is.
                                p._waiting_on = target
                                self._seq = seq = self._seq + 1
                                entry = (when + nxt, NORMAL, seq, target)
                                tail = self._tail
                                if not tail:
                                    self._tail = entry
                                elif entry < tail:
                                    self._tail = entry
                                    push(heap, tail)
                                else:
                                    push(heap, entry)
                            elif isinstance(nxt, Event):
                                p._waiting_on = nxt
                                cbs = nxt.callbacks
                                if cbs is not None:
                                    cbs.append(p._bound_resume)
                                else:
                                    nxt.add_callback(p._bound_resume)
                            else:
                                self._crash(_bad_yield(p, nxt), p)
                    elif isinstance(target, Event):
                        if target._cancelled:
                            continue
                        self.now = when
                        if trace is not None:
                            trace(when, _prio, _seq)
                        if chk is not None:
                            chk.on_dispatch(when)
                        if entry is tail:
                            in_place += 1
                        else:
                            dispatched += 1
                        callbacks = target.callbacks
                        target.callbacks = None
                        target._processed = True
                        if callbacks:
                            for cb in callbacks:
                                cb(target)
                    else:  # a bare call_tail function
                        self.now = when
                        if trace is not None:
                            trace(when, _prio, _seq)
                        if chk is not None:
                            chk.on_dispatch(when)
                        if entry is tail:
                            in_place += 1
                        else:
                            dispatched += 1
                        target(None)
                    if self._crashed is not None:
                        self._raise_crash()
                    if stop._processed:
                        break
        finally:
            # A tail left parked (the loop stopped, or a dispatch raised)
            # goes to the heap under its own seq.
            self._unpark()
            self._tail = None if outer is None else _OPEN
            if gc_was_enabled:
                gc.enable()
            self.events_processed += dispatched
            self.events_in_place += in_place
            Simulator.total_events += dispatched
            tally.in_place += in_place

        if stop is not _NEVER:
            if not stop._ok:
                raise stop._value
            return stop._value
        if until is not None:
            self.now = horizon
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none.

        Lazily drops cancelled tombstones sitting on top of the heap.  An
        entry parked by the running dispatch is pushed first, so it
        counts as scheduled.
        """
        self._unpark()
        heap = self._heap
        while heap and _dead(heap[0][3]):
            heappop(heap)
        return heap[0][0] if heap else float("inf")


#: ``run()``'s stop event when it has none: never processed.  A plain
#: Event, so the loop's ``stop._processed`` stays a specialized slot read.
_NEVER = Event.__new__(Event)
_NEVER._processed = False


def _dead(target: Any) -> bool:
    """A tombstone: a cancelled Event or a detached sleeper (a bare
    :meth:`Simulator.call_tail` function is never one)."""
    return getattr(target, "_cancelled", False)


class _Tally:
    """Process-wide counters, on an instance (see ``total_events``)."""

    __slots__ = ("in_place",)

    def __init__(self) -> None:
        self.in_place = 0


#: ``tally.in_place`` sums ``events_in_place`` over every simulator.
tally = _Tally()


def _awaited(_event: Event) -> None:
    """Marker callback: the run() caller is waiting on this event."""


# Re-exported for introspection/tests; heapq retained as the one true
# ordering structure (C heappush beats any Python-level "sorted insert"
# fast path we measured — see docs/PERFORMANCE.md).
_ = heapq
