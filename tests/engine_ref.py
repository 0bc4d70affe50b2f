"""A reference engine for differential tests: nothing runs in place.

``always_push()`` makes every scheduled entry take a heap round trip, as
the engine did before in-place dispatch: ``Simulator._park`` pushes, and
the dispatch loop's ``heappushpop`` becomes a push and then a pop that
hands back a copy of the popped entry, so the loop never sees its tail
come back (the tail slot is then only filled by the loop's inlined
sleeper re-push, and that entry too goes through the heap).  A run under
it dispatches every entry from the heap, in heap order.
"""

import contextlib
import heapq

import pytest

from repro.sim import engine
from repro.sim.engine import Simulator


def _park(sim: Simulator, entry: tuple) -> None:
    heapq.heappush(sim._heap, entry)


def _pushpop(heap: list, item: tuple) -> tuple:
    heapq.heappush(heap, item)
    return (*heapq.heappop(heap),)  # a new tuple: never ``is item``


@contextlib.contextmanager
def always_push():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "_park", _park)
        mp.setattr(engine, "heappushpop", _pushpop)
        yield
