"""Contended resources for the DES kernel.

:class:`Resource` models a fixed number of service slots (RNIC execution
units, PCIe DMA engines, memory-controller banks): processes ``yield
res.acquire()`` and must ``res.release()`` when done; callback-driven
code holds the same FIFO without a process (``book``/``claim``).
:class:`Store` is an unbounded-or-bounded FIFO of items (message queues,
work queues).

Both hand out grants in strict FIFO order, which keeps simulations
deterministic and mirrors the in-order behaviour of the hardware queues they
stand in for.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.sim.engine import Event, SimulationError, Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A counted resource with FIFO granting.

    Usage inside a process::

        grant = resource.acquire()
        yield grant
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()

    Two process-free holds share the same FIFO, so callback-driven code
    (the express verbs lane) and processes contend on one queue:

    * ``book(dur, cb)`` — a timed hold: once granted, ``cb`` wakes at
      grant time + ``dur`` (one :meth:`Simulator.call_tail`, which runs
      it in place when it is provably the next dispatch); the callback
      must ``release()``.
    * ``claim(cb)`` — an untimed hold: returns True when granted on the
      spot, else ``cb(resource)`` runs at the grant; the holder releases
      whenever its own work ends.

    ``release()`` hands the slot straight to the head waiter — an acquire
    event, a booking or a claim — at the releaser's dispatch; the busy
    span stays open across a handover.

    The waiter FIFO is created at the first contention, so an idle
    resource (e.g. one of the RNIC's per-word atomic locks, kept for the
    whole run) holds no queue.
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters",
                 "_busy_ns", "_busy_since")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: FIFO of waiters: an acquire Event, a ``(dur, cb)`` booking, or
        #: a ``(None, cb)`` claim; ``None`` until the first one queues.
        self._waiters: Optional[deque] = None
        # busy-time accounting for utilization reports
        self._busy_ns = 0.0
        self._busy_since: Optional[float] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_len(self) -> int:
        return len(self._waiters) if self._waiters else 0

    def acquire(self) -> Event:
        """Return an event that fires when a slot is granted."""
        # Hot path (one acquire per pipeline stage per op): the
        # uncontended grant is inlined; FIFO order and schedules are
        # unchanged.
        ev = self.sim.event()
        if self._in_use < self.capacity:
            if self._in_use == 0:
                self._busy_since = self.sim.now
            self._in_use += 1
            ev.succeed(self)
        else:
            self._queue().append(ev)
        return ev

    def _queue(self) -> deque:
        """The waiter FIFO, created at the first contention."""
        waiters = self._waiters
        if waiters is None:
            waiters = self._waiters = deque()
        return waiters

    def book(self, dur: float, cb: Callable) -> None:
        """Timed hold without a process: ``cb`` wakes ``dur`` after the
        grant — scheduled now when a slot is free, else by the release
        that grants it."""
        if self._in_use < self.capacity:
            sim = self.sim
            if self._in_use == 0:
                self._busy_since = sim.now
            self._in_use += 1
            sim.call_tail(sim.now + dur, cb)
        else:
            self._queue().append((dur, cb))

    def claim(self, cb: Callable) -> bool:
        """Untimed hold: True when granted now; otherwise queue, and the
        granting release runs ``cb(self)`` inline."""
        if self._in_use < self.capacity:
            if self._in_use == 0:
                self._busy_since = self.sim.now
            self._in_use += 1
            return True
        self._queue().append((None, cb))
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        waiters = self._waiters
        if waiters:
            # Waiters exist only while every slot is held: hand this one
            # over without closing the busy span.
            w = waiters.popleft()
            if w.__class__ is tuple:
                dur, cb = w
                if dur is None:
                    cb(self)
                else:
                    sim = self.sim
                    sim.call_tail(sim.now + dur, cb)
            else:
                w.succeed(self)
            return
        self._in_use -= 1
        if self._in_use == 0:
            self._busy_ns += self.sim.now - self._busy_since
            self._busy_since = None

    def cancel(self, grant: Event) -> None:
        """Withdraw a not-yet-granted acquire request."""
        waiters = self._waiters
        if waiters is None:
            return
        try:
            waiters.remove(grant)
        except ValueError:
            return
        # Tombstone the abandoned grant so its waiter closures are freed
        # immediately (see Event.cancel) instead of leaking until GC.
        grant.cancel()

    def busy_time(self) -> float:
        """Total ns during which at least one slot was held."""
        extra = self.sim.now - self._busy_since if self._busy_since is not None else 0.0
        return self._busy_ns + extra

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the resource was busy."""
        return self.busy_time() / self.sim.now if self.sim.now > 0 else 0.0


class Store:
    """FIFO store of items with optional capacity bound.

    ``get()`` returns an event whose value is the item; ``put(item)`` returns
    an event that fires once the item is accepted (immediately unless the
    store is full).
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"), name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        ev = self.sim.event()
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            ev.succeed(None)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                put_ev.succeed(None)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: pop and return an item, or ``None`` if empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        if self._putters:
            put_ev, pending = self._putters.popleft()
            self._items.append(pending)
            put_ev.succeed(None)
        return item
