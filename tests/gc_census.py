"""Census of what only the cyclic garbage collector can free.

``Simulator.run`` pauses the cyclic collector for its whole dispatch
loop, so a per-op object (a finished ``Process``, a completed
``ExpressOp``) must be acyclic by the time its op ends: otherwise it
stays alive until ``run()`` returns.
"""

import gc
from collections import Counter


def cyclic_garbage(scenario) -> Counter:
    """Run ``scenario()`` and count, by type name, the objects that only
    a collection could free.  The scenario's return value (its rig) stays
    alive through the census, so only objects it dropped are counted.

    Every object that exists before the scenario starts is frozen out of
    the census's collection (``gc.freeze``), because garbage left by
    earlier code is not always freed by one collection: a suspended
    generator closed by the collector runs its ``finally`` blocks, and
    one that releases a ``Resource`` to a waiter pushes a new heap entry,
    which keeps the old simulator alive until the next collection."""
    gc.collect()
    gc.freeze()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        keep = scenario()  # noqa: F841 - held alive through the census
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.unfreeze()
