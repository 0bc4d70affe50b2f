"""Function census: the functions under ``src/repro`` that tier-1 never calls.

Runs pytest in this process under one outer ``cProfile`` profiler, then
walks every ``def`` under ``src/repro`` with ``ast`` and lists those whose
code object never ran.  The suite's own profilers
(``repro.bench.perf.census.calls_by_layer``, ``repro.bench.parallel.
profiled``) would otherwise take the profiling hook away: while one of
them is enabled the outer profiler is suspended, and what it saw is
harvested when it is disabled.  Forked pool workers are not seen, so
check each hit by hand before deleting it.

Usage::

    PYTHONPATH=src python tools/funcov.py [pytest args ...]

With no arguments, runs tier-1 (``-x -q`` over the configured test
paths).  Prints one line per never-called function (a function nested in
one that is itself never called is folded into it), then the totals.
Exits with pytest's status, since a failed run leaves the census short.
"""

from __future__ import annotations

import ast
import cProfile
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")


class Census:
    """A pytest plugin holding the outer profiler and the code it saw."""

    def __init__(self):
        self.outer = cProfile.Profile()
        self.seen: set[tuple[str, int]] = set()
        self._enable = cProfile.Profile.enable
        self._disable = cProfile.Profile.disable

    def _harvest(self, prof) -> None:
        for entry in prof.getstats():
            code = entry.code
            if not isinstance(code, str):  # builtins carry a label
                self.seen.add((os.path.abspath(code.co_filename),
                               code.co_firstlineno))

    def pytest_sessionstart(self, session) -> None:
        census = self

        def enable(prof, *args, **kw):
            if prof is not census.outer:
                census._disable(census.outer)
            census._enable(prof, *args, **kw)

        def disable(prof):
            census._disable(prof)
            if prof is not census.outer:
                census._harvest(prof)
                census._enable(census.outer)

        cProfile.Profile.enable = enable
        cProfile.Profile.disable = disable
        self._enable(self.outer)

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        self._disable(self.outer)
        cProfile.Profile.enable = self._enable
        cProfile.Profile.disable = self._disable
        self._harvest(self.outer)


def never_called(seen: set[tuple[str, int]]) -> list[tuple[str, int, str, int]]:
    """``(path, line, qualname, lines)`` of every function under ``SRC``
    whose code object is not in ``seen``, outermost first."""
    out = []
    for dirpath, _dirs, files in sorted(os.walk(SRC)):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            _walk(tree, path, "", seen, out)
    return out


def _walk(node, path, prefix, seen, out) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A decorated function's code object starts at its first
            # decorator.
            first = min([d.lineno for d in child.decorator_list]
                        + [child.lineno])
            name = prefix + child.name
            if (path, first) not in seen:
                out.append((path, child.lineno, name,
                            child.end_lineno - child.lineno + 1))
                continue  # nested functions fold into this hit
            _walk(child, path, name + ".<locals>.", seen, out)
        elif isinstance(child, ast.ClassDef):
            _walk(child, path, prefix + child.name + ".", seen, out)
        else:
            _walk(child, path, prefix, seen, out)


def main(argv: list[str]) -> int:
    import pytest

    census = Census()
    status = pytest.main(argv or ["-x", "-q"], plugins=[census])
    hits = never_called(census.seen)
    print("\nnever called under tier-1:")
    for path, line, name, lines in hits:
        print(f"  {os.path.relpath(path, ROOT)}:{line} {name} ({lines} lines)")
    print(f"{len(hits)} functions, {sum(h[3] for h in hits)} lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
