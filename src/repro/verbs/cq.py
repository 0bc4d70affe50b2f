"""Completion queues."""

from __future__ import annotations

from typing import Optional

from repro.sim import Simulator, Store
from repro.verbs.types import Completion

__all__ = ["CompletionQueue"]


class CompletionQueue:
    """Holds CQEs produced by the hardware; CPUs poll or block on it.

    SQ and RQ may share a CQ or use distinct ones (Section II-A); the
    context creates one per QP by default.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._store = Store(sim, name=name)
        self.produced = 0
        self.consumed = 0

    def push(self, completion: Completion) -> None:
        """Hardware-side: deposit a CQE."""
        self.produced += 1
        self._store.put(completion)

    def deposit(self, completion: Completion) -> None:
        """Express-lane deposit: ``push`` without the store's put-ack.

        The ack is a no-op event nothing can wait on (the store is
        unbounded, so a put never blocks); the lane skips it and hands the
        CQE straight to the oldest pending ``wait()`` or appends it.  The
        stepped pipeline keeps ``push`` and its ack, so its schedules (and
        the traced pins recorded from them) do not move."""
        self.produced += 1
        store = self._store
        if store._getters:
            store._getters.popleft().succeed(completion)
        else:
            store._items.append(completion)

    def poll(self) -> Optional[Completion]:
        """Non-blocking poll, as ``ibv_poll_cq`` (returns None if empty)."""
        cqe = self._store.try_get()
        if cqe is not None:
            self.consumed += 1
        return cqe

    def wait(self):
        """Event whose value is the next CQE (blocking reap)."""
        ev = self._store.get()
        ev.add_callback(lambda _e: self._count())
        return ev

    def _count(self) -> None:
        self.consumed += 1

    def __len__(self) -> int:
        return len(self._store)
