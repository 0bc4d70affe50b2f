"""Contended resources for the DES kernel.

:class:`Resource` models a fixed number of service slots (RNIC execution
units, PCIe DMA engines, memory-controller banks): processes ``yield
res.acquire()`` and must ``res.release()`` when done; callback-driven
code holds the same FIFO without a process (``book``/``claim``/``lease``).
:class:`Store` is an unbounded-or-bounded FIFO of items (message queues,
work queues).

Both hand out grants in strict FIFO order, which keeps simulations
deterministic and mirrors the in-order behaviour of the hardware queues they
stand in for.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.sim.engine import NORMAL, Event, SimulationError, Simulator

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

    Three process-free holds share the same FIFO, so callback-driven code
    (the express verbs lane) and processes contend on one queue:

    * ``book(dur, cb)`` — a timed hold: once granted, ``cb`` wakes at
      grant time + ``dur`` (one :meth:`Simulator.call_tail`, which runs
      it in place when it is provably the next dispatch); the callback
      must ``release()``.
    * ``claim(cb)`` — an untimed hold: returns True when granted on the
      spot, else ``cb(resource)`` runs at the grant; the holder releases
      whenever its own work ends.
    * ``lease(dur, cb)`` — a timed hold that frees itself (capacity-1
      units only): ``cb(end)`` runs at the grant, with the end instant,
      and the holder never releases.  The end takes a wake only when a
      waiter queues behind it; see :meth:`lease`.

    ``release()`` hands the slot straight to the head waiter — an acquire
    event, a booking, a claim or a lease — at the releaser's dispatch;
    the busy span stays open across a handover.

    The waiter FIFO is created at the first contention, so an idle
    resource (e.g. one of the RNIC's per-word atomic locks, kept for the
    whole run) holds no queue.  A lease that nobody waits behind keeps
    its reserved end key in the FIFO's slot, so it needs no slot of its
    own.
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
        #: FIFO of waiters: an acquire Event, a ``(dur, cb, False)``
        #: booking, a ``(dur, cb, True)`` lease or a ``(None, cb, False)``
        #: claim; ``None`` until the first one queues.  While a lease
        #: holds the unit with no wake scheduled for its end, the slot
        #: holds the lease's reserved end key ``(end, seq)`` instead.
        self._waiters: Optional[deque | tuple] = None
        # busy-time accounting for utilization reports
        self._busy_ns = 0.0
        self._busy_since: Optional[float] = None

    @property
    def in_use(self) -> int:
        if self._waiters.__class__ is tuple:
            self._lapsed()
        return self._in_use

    @property
    def queue_len(self) -> int:
        waiters = self._waiters
        return len(waiters) if waiters.__class__ is deque else 0

    def acquire(self) -> Event:
        """Return an event that fires when a slot is granted."""
        # Hot path (one acquire per pipeline stage per op): the
        # uncontended grant is inlined; FIFO order and schedules are
        # unchanged.
        ev = self.sim.event()
        if self._in_use < self.capacity or (
                self._waiters.__class__ is tuple and self._lapsed()):
            if self._in_use == 0:
                self._busy_since = self.sim.now
            self._in_use += 1
            ev.succeed(self)
        else:
            self._wait(ev)
        return ev

    def _wait(self, waiter) -> None:
        """Queue ``waiter`` behind the holders.  A lease holding the unit
        gets its end wake now, at the key it reserved, so the handover
        runs where a ``book`` end-wake would run it."""
        waiters = self._waiters
        if waiters.__class__ is not deque:
            if waiters is not None:
                end, seq = waiters
                self.sim._park((end, NORMAL, seq, self._lease_end))
            waiters = self._waiters = deque()
        waiters.append(waiter)

    def _lease_end(self, _ev) -> None:
        """The end wake of a lease that a waiter queued behind."""
        self.release()

    def _lapsed(self) -> bool:
        """Free the unit if its lease, which has no end wake, ended before
        the running dispatch (its reserved key is behind ``sim``'s); the
        busy span closes at the lease's end, as ``release()`` there would
        close it."""
        end, seq = self._waiters
        sim = self.sim
        now = sim.now
        if now > end or (now == end and sim.seq_now > seq):
            self._waiters = None
            self._in_use = 0
            self._busy_ns += end - self._busy_since
            self._busy_since = None
            return True
        return False

    def book(self, dur: float, cb: Callable) -> None:
        """Timed hold without a process: ``cb`` wakes ``dur`` after the
        grant — scheduled now when a slot is free, else by the release
        that grants it."""
        if self._in_use < self.capacity or (
                self._waiters.__class__ is tuple and self._lapsed()):
            sim = self.sim
            if self._in_use == 0:
                self._busy_since = sim.now
            self._in_use += 1
            sim.call_tail(sim.now + dur, cb)
        else:
            self._wait((dur, cb, False))

    def claim(self, cb: Callable) -> bool:
        """Untimed hold: True when granted now; otherwise queue, and the
        granting release runs ``cb(self)`` inline."""
        if self._in_use < self.capacity or (
                self._waiters.__class__ is tuple and self._lapsed()):
            if self._in_use == 0:
                self._busy_since = self.sim.now
            self._in_use += 1
            return True
        self._wait((None, cb, False))
        return False

    def lease(self, dur: float, cb: Callable) -> None:
        """Timed hold that frees itself: ``cb(end)`` runs at the grant —
        now when the unit is free, else inside the release that grants
        it — with ``end`` = grant time + ``dur``; the holder books its
        own continuation from there and never calls ``release()``.

        The grant takes the seq a ``book`` end-wake would take, reserving
        the key ``(end, NORMAL, seq)``.  That key becomes a heap entry
        only if a waiter queues behind the lease, so the handover runs
        exactly where the ``book`` end-wake would run it.  Otherwise no
        wake is spent: the first caller whose dispatch is past the key
        frees the unit (:meth:`_lapsed`), and the busy span closes at
        ``end``.  Grant instants, FIFO order, handover keys and busy time
        are ``book``'s; only the holder's continuation is scheduled
        earlier.  ``sim.now`` after a drained ``run()`` reaches ``end``
        only if the holder scheduled something at or after it.
        """
        if self.capacity != 1:
            raise ValueError(f"lease() needs a capacity-1 unit, "
                             f"{self.name!r} has {self.capacity}")
        if self._in_use == 0 or (
                self._waiters.__class__ is tuple and self._lapsed()):
            self._in_use = 1
            self._busy_since = self.sim.now
            self._grant_lease(dur, cb)
        else:
            self._wait((dur, cb, True))

    def _grant_lease(self, dur: float, cb: Callable) -> None:
        """Reserve the lease's end key and run its holder's callback."""
        sim = self.sim
        end = sim.now + dur
        if not end >= sim.now:
            end = sim._clamp(end)
        sim._seq = seq = sim._seq + 1
        if self._waiters:
            sim._park((end, NORMAL, seq, self._lease_end))
        else:
            self._waiters = (end, seq)
        cb(end)

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        waiters = self._waiters
        if waiters:
            # Waiters exist only while every slot is held: hand this one
            # over without closing the busy span.
            w = waiters.popleft()
            if w.__class__ is tuple:
                dur, cb, leased = w
                if dur is None:
                    cb(self)
                elif leased:
                    self._grant_lease(dur, cb)
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
        if waiters.__class__ is not deque:
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
        if self._waiters.__class__ is tuple:
            self._lapsed()
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
