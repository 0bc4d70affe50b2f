"""pytest integration: the ``@with_checkers`` decorator and its harness.

A checked test builds simulators as usual but installs sanitizers through
the injected harness::

    @with_checkers
    def test_lock_chaos(checkers):
        sim, cluster, ctx = build(machines=2)
        checkers.install(sim)          # before building the workload
        ...
        sim.run(...)
    # on exit: every sanitizer finalizes; violations fail the test

The decorator appends ``checkers=`` to the call and asserts a clean
merged report afterwards — the test body can also call
``checkers.finalize()`` itself to inspect the report (e.g. to assert a
*reverted* bug IS caught); the exit-time assertion then only covers
whatever was installed afterwards.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.check.report import CheckReport
from repro.check.sanitizer import Sanitizer

__all__ = ["CheckerHarness", "with_checkers"]


class CheckerHarness:
    """Creates sanitizers for a test and merges/asserts their reports."""

    def __init__(self, checkers: Optional[Iterable[str]] = None,
                 strict_overlap: bool = False):
        self._opts = dict(checkers=checkers, strict_overlap=strict_overlap)
        self.sanitizers: list[Sanitizer] = []

    def install(self, sim, **overrides) -> Sanitizer:
        """Install a sanitizer on ``sim`` (harness defaults + overrides)."""
        opts = {**self._opts, **overrides}
        san = Sanitizer(sim, **opts)
        self.sanitizers.append(san)
        return san

    def finalize(self) -> CheckReport:
        """Finalize every pending sanitizer; returns the merged report."""
        merged = CheckReport()
        for san in self.sanitizers:
            merged.merge(san.finalize())
        self.sanitizers = []
        merged.finalized = True
        return merged

    def assert_clean(self) -> None:
        self.finalize().raise_if_violations()


def with_checkers(fn=None, *, checkers: Optional[Iterable[str]] = None,
                  strict_overlap: bool = False):
    """Decorator: inject a :class:`CheckerHarness` as ``checkers`` and
    fail the test on any violation left when it returns.

    Usable bare (``@with_checkers``) or configured
    (``@with_checkers(strict_overlap=True)``).  The wrapper takes
    ``(*args, **kwargs)`` so pytest requests no fixtures for it — checked
    tests receive only the injected harness (parametrize by wrapping
    factories inside the test body if needed).
    """

    def decorate(test_fn):
        def wrapper(*args, **kwargs):
            harness = CheckerHarness(checkers=checkers,
                                     strict_overlap=strict_overlap)
            result = test_fn(*args, checkers=harness, **kwargs)
            harness.assert_clean()
            return result

        # Deliberately not functools.wraps: exposing __wrapped__ would
        # make pytest introspect the original signature and try to
        # fixture-inject the `checkers` parameter.
        wrapper.__name__ = test_fn.__name__
        wrapper.__qualname__ = getattr(test_fn, "__qualname__",
                                       test_fn.__name__)
        wrapper.__doc__ = test_fn.__doc__
        wrapper.__module__ = test_fn.__module__
        return wrapper

    return decorate if fn is None else decorate(fn)
