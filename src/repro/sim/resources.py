"""Contended resources for the DES kernel.

:class:`Resource` models one FIFO server (an RNIC execution unit, a PCIe
DMA engine, an atomic word lock): processes ``yield res.acquire()`` and
must ``res.release()`` when done; callback-driven code holds the same
FIFO without a process (:meth:`Resource.hold`).
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
    """One unit, held by one holder at a time, granted in FIFO order.

    Usage inside a process::

        grant = resource.acquire()
        yield grant
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()

    Callback-driven code (the express verbs lane) takes the same FIFO
    without a process, so it and processes contend on one queue:
    ``hold(dur, grant, end)``.  ``grant(end_instant)`` runs at the grant
    — now when the unit is free, else inside the ``release()`` that hands
    it over — with grant time + ``dur``, or with ``None`` for an untimed
    hold (``dur=None``), which its holder releases.  A timed hold frees
    itself at its end: it hands the unit to the head waiter and only then
    runs ``end(None)``.  Its end takes a wake only when ``end`` is given
    or a waiter queues behind it; see :meth:`hold`.

    ``release()`` hands the unit straight to the head waiter — an acquire
    event or a hold — at the releaser's dispatch; the busy span stays
    open across a handover.

    The waiter FIFO is created at the first contention, so an idle
    resource (e.g. one of the RNIC's per-word atomic locks, kept for the
    whole run) holds no queue.  A timed hold whose end has no wake keeps
    its reserved end key in the FIFO's slot, so it needs no slot of its
    own.
    """

    __slots__ = ("sim", "name", "_in_use", "_waiters", "_end",
                 "_busy_ns", "_busy_since")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._in_use = 0
        #: FIFO of waiters: an acquire Event or a ``(dur, grant, end)``
        #: hold; ``None`` until the first one queues.  While a timed hold
        #: with no wake for its end holds the unit, the slot holds its
        #: reserved end key ``(end, seq)`` instead.
        self._waiters: Optional[deque | tuple] = None
        #: The running timed hold's ``end`` callback, run by its end wake.
        self._end: Optional[Callable] = None
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
        """Return an event that fires when the unit is granted."""
        # Hot path (one acquire per pipeline stage per op): the
        # uncontended grant is inlined; FIFO order and schedules are
        # unchanged.
        ev = self.sim.event()
        if not self._in_use or (
                self._waiters.__class__ is tuple and self._lapsed()):
            self._in_use = 1
            self._busy_since = self.sim.now
            ev.succeed(self)
        else:
            self._wait(ev)
        return ev

    def _wait(self, waiter) -> None:
        """Queue ``waiter`` behind the holder.  A timed hold whose end has
        no wake gets one now, at the key it reserved, so the handover
        runs there."""
        waiters = self._waiters
        if waiters.__class__ is not deque:
            if waiters is not None:
                end, seq = waiters
                self.sim._park((end, NORMAL, seq, self._ended))
            waiters = self._waiters = deque()
        waiters.append(waiter)

    def _ended(self, _arg) -> None:
        """A timed hold's end wake: hand the unit to the head waiter, or
        free it, then run the hold's ``end``."""
        end = self._end
        self._end = None
        if self._waiters:
            self.release()
        else:
            self._in_use = 0
            self._busy_ns += self.sim.now - self._busy_since
            self._busy_since = None
        if end is not None:
            end(None)

    def _lapsed(self) -> bool:
        """Free the unit if its timed hold, which has no end wake, ended
        before the running dispatch (its reserved key is behind
        ``sim``'s); the busy span closes at the hold's end, as its end
        wake would close it."""
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

    def hold(self, dur: Optional[float], grant: Optional[Callable] = None,
             end: Optional[Callable] = None) -> None:
        """Hold the unit without a process, for ``dur`` ns from the grant
        (``None``: until the holder calls ``release()``).

        The grant runs now when the unit is free, else inside the
        ``release()`` that hands it over.  A timed grant takes the seq of
        the hold's end wake, reserving the key ``(end, NORMAL, seq)`` with
        end = grant time + ``dur``, then calls ``grant(end)``; an untimed
        one calls ``grant(None)`` and reserves nothing.

        The reserved key becomes a heap entry only if ``end`` is given
        or a waiter queues behind the hold.  That wake hands the unit
        over (or frees it) and then runs ``end(None)``.  Otherwise no wake
        is spent: the first caller whose dispatch is past the key frees
        the unit (:meth:`_lapsed`), and the busy span closes at the end.
        Grant instants, FIFO order, handover keys and busy time are the
        same either way; only the holder's continuation moves, from the
        end to the grant.  ``sim.now`` after a drained ``run()`` reaches
        the end only if something is scheduled at or after it.

        ``grant`` runs right after the reservation, so ``sim._seq`` is the
        reserved seq when it starts: a holder may book a keyed wake after
        its end key (:meth:`Simulator.call_keyed`).

        A negative or NaN ``dur`` raises ``ValueError`` before the unit
        is touched, as :meth:`Simulator.timeout` refuses such a delay.
        """
        if dur is not None and not dur >= 0:  # NaN fails too
            raise ValueError(f"negative or NaN hold duration: {dur}")
        sim = self.sim
        if self._in_use:
            waiters = self._waiters
            # :meth:`_lapsed`, inlined on this hot path: the unit is
            # granted again below, so only the busy span closes here.
            if waiters.__class__ is tuple and (
                    sim.now > waiters[0] or (sim.now == waiters[0]
                                             and sim.seq_now > waiters[1])):
                self._waiters = None
                self._busy_ns += waiters[0] - self._busy_since
            else:
                self._wait((dur, grant, end))
                return
        self._in_use = 1
        self._busy_since = sim.now
        if dur is None:
            if grant is not None:
                grant(None)
            return
        # :meth:`_grant`, inlined on this hot path (a lane hold per
        # stage), with no waiter queued.
        when = sim.now + dur
        sim._seq = seq = sim._seq + 1
        if end is None:
            self._waiters = (when, seq)
        else:
            self._end = end
            sim._park((when, NORMAL, seq, self._ended))
        if grant is not None:
            grant(when)

    def _grant(self, dur: float, grant: Optional[Callable],
               end: Optional[Callable]) -> None:
        """Grant a queued timed hold at a handover, as :meth:`hold` grants
        a free unit."""
        sim = self.sim
        when = sim.now + dur
        sim._seq = seq = sim._seq + 1
        if end is not None or self._waiters:
            self._end = end
            sim._park((when, NORMAL, seq, self._ended))
        else:
            self._waiters = (when, seq)
        if grant is not None:
            grant(when)

    def release(self) -> None:
        if not self._in_use:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        waiters = self._waiters
        if waiters:
            # Waiters exist only while the unit is held: hand it to the
            # head one without closing the busy span.
            w = waiters.popleft()
            if w.__class__ is tuple:
                dur, grant, end = w
                if dur is not None:
                    self._grant(dur, grant, end)
                elif grant is not None:
                    grant(None)
            else:
                w.succeed(self)
            return
        self._in_use = 0
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
        """Total ns during which the unit was held."""
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
