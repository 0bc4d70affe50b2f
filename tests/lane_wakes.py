"""Record which express-lane handler each wake ran.

Every lane booking names its handler (``partial(self._handler, op, ...)``
in :mod:`repro.verbs.express`).  :func:`lane_wakes` wraps each booked
handler and records a wake whenever a caller outside the lane runs one:
the engine's dispatch loop (a scheduled or in-place wake, a parked op's
callback on its predecessor's ``done``) or a ``Resource`` (a timed
hold's end wake or its grant, and an untimed hold's grant, whether it
runs inside ``hold`` on a free word lock or at a queued one's
handover).  A call from one handler to another is not a wake and is
not recorded.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import inspect
import sys
from pathlib import Path
from typing import Callable, Iterator

import pytest

from repro.verbs import express
from repro.verbs.express import ExpressState

#: Every handler a lane booking names.
BOOKED = frozenset(
    call.args[0].attr for call in ast.walk(ast.parse(inspect.getsource(
        express))) if isinstance(call, ast.Call)
    and getattr(call.func, "id", None) == "partial"
    and isinstance(call.args[0], ast.Attribute))

_LANE = express.__file__
_TESTS = str(Path(__file__).parent)


def _woken(frame) -> bool:
    """True when the first caller outside the test wrappers lies outside
    the lane."""
    while frame.f_code.co_filename.startswith(_TESTS):
        frame = frame.f_back
    return frame.f_code.co_filename != _LANE


def _opcode_and_handler(op, handler: str, arg):
    return op.opcode.name, handler


@contextlib.contextmanager
def lane_wakes(record: Callable = _opcode_and_handler) -> Iterator[list]:
    """Yield a list of ``record(op, handler, arg)`` for each lane wake,
    in dispatch order, where ``handler`` is the handler's name and
    ``arg`` its last argument (see :class:`ExpressState`); by default
    ``(opcode name, handler)``.  A record of ``None`` is dropped."""
    seen: list = []

    def wrap(name: str):
        handler = getattr(ExpressState, name)

        @functools.wraps(handler)
        def wrapper(self, op, *args):
            if _woken(sys._getframe(1)):
                item = record(op, name, args[-1])
                if item is not None:
                    seen.append(item)
            return handler(self, op, *args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in BOOKED:
            mp.setattr(ExpressState, name, wrap(name))
        yield seen
