"""Completion queues."""

from __future__ import annotations

import weakref
from collections import OrderedDict, deque
from typing import Any, Optional

from repro.sim import Event, Simulator
from repro.verbs.types import Completion

__all__ = ["CompletionQueue", "reap"]


class CompletionQueue:
    """Holds CQEs produced by the hardware; CPUs poll or block on it.

    SQ and RQ may share a CQ or use distinct ones (Section II-A); the
    context creates one per QP by default.

    Each CQE is reaped exactly once, as ``ibv_poll_cq`` reports it once,
    by whichever comes first of:

    * :meth:`poll` (the oldest CQE);
    * a :meth:`wait` getter (the oldest CQE, or the next one deposited);
    * the :meth:`Worker.wait <repro.verbs.Worker.wait>` that pays
      ``cpu_poll_ns`` for it (that very CQE, wherever it sits; see
      :func:`reap`).

    A reaped CQE leaves the queue and counts in ``consumed``; the rest
    stay in FIFO order.  A bare ``yield done`` outside a Worker reaps
    nothing, so that CQE stays pollable.

    Queued CQEs sit in an identity-keyed ordered dict, mirrored in the
    simulator-wide index ``sim.cqes`` (``id(cqe) ->`` a weak reference
    to the queue), so a reap by identity costs one removal from each.
    Every path that takes a CQE out removes both entries, and a queue
    freed with CQEs still queued removes theirs, so the index holds
    exactly the queued CQEs and an id cannot be reused while it is
    indexed.  Neither a CQE nor the index holds the queue strongly:
    either would tie the queue and its CQEs into a cycle (the simulator
    is in one), and ``run()`` pauses the collector.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._index: dict[int, weakref.ref[CompletionQueue]] = sim.cqes
        self._ref = weakref.ref(self)
        self._items: OrderedDict[int, Completion] = OrderedDict()
        self._getters: deque[Event] = deque()
        self.produced = 0
        self.consumed = 0

    def __del__(self) -> None:
        index = self._index
        for key in self._items:
            del index[key]

    def _take(self) -> Completion:
        key, cqe = self._items.popitem(last=False)
        del self._index[key]
        return cqe

    def deposit(self, completion: Completion) -> None:
        """Hardware-side: deposit a CQE, on either lane.

        It goes straight to the oldest pending ``wait()``, or else joins
        the queue.  Unlike ``Store.put`` it schedules nothing: a put-ack
        here would be an event nothing can wait on."""
        self.produced += 1
        if self._getters:
            self._getters.popleft().succeed(completion)
        else:
            key = id(completion)
            self._items[key] = completion
            self._index[key] = self._ref

    def poll(self) -> Optional[Completion]:
        """Non-blocking poll, as ``ibv_poll_cq`` (returns None if empty)."""
        if not self._items:
            return None
        self.consumed += 1
        return self._take()

    def wait(self) -> Event:
        """Event whose value is the next CQE (blocking reap); it counts
        in ``consumed`` when the event is dispatched."""
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._take())
        else:
            self._getters.append(ev)
        ev.add_callback(self._count)
        return ev

    def _count(self, _ev: Event) -> None:
        self.consumed += 1

    def __len__(self) -> int:
        return len(self._items)


def reap(index: dict[int, weakref.ref[CompletionQueue]], cqe: Any) -> None:
    """Take ``cqe`` out of whichever queue of ``index`` still holds it.

    A no-op when none does: an unsignaled WR, a ``REJECTED`` completion
    (never deposited), or a CQE a poll or getter already reaped."""
    key = id(cqe)
    ref = index.pop(key, None)
    if ref is not None:
        cq = ref()
        del cq._items[key]
        cq.consumed += 1
