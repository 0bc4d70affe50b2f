"""Function census: the functions under ``src/repro`` that tier-1 never
calls, and those that no workload of the product reaches.

Runs pytest in this process under one outer ``cProfile`` profiler, then
walks every ``def`` under ``src/repro`` with ``ast`` and lists those whose
code object never ran.  The suite's own profilers
(``repro.bench.perf.census.calls_by_layer``, ``repro.bench.parallel.
profiled``) would otherwise take the profiling hook away: while one of
them is enabled the outer profiler is suspended, and what it saw is
harvested when it is disabled.  Forked pool workers are not seen, so
check each hit by hand before deleting it.

A second, traffic pass then profiles what the product runs: every
``repro.bench.TARGETS`` campaign (quick, inline), the ``make check``
suite, the four end-to-end workloads of ``benchmarks/e2e/workloads.py``
at scale 0.02, every script in ``examples/`` and the ablation benches of
``benchmarks/test_ablations.py`` (its QP-count ablation is
``ConnectionMesh``'s only traffic).  It lists the functions none of them
reach: a function only a unit test calls is either dead weight or a
mechanism no target wires up.  Then it lists the code units that
docs/PAPER_MAP.md cites and nothing reached: the paper mechanisms that
have code but no traffic.

Usage::

    PYTHONPATH=src python tools/funcov.py [pytest args ...]

With no arguments, runs tier-1 (``-x -q`` over the configured test
paths).  Prints each list, one line per function (a function nested in
one that is itself not reached is folded into it), then its totals.
Exits non-zero when tier-1 or an ablation fails, since a failed run
leaves the census short.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import re
import runpy
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
PAPER_MAP = os.path.join(ROOT, "docs", "PAPER_MAP.md")


class Census:
    """An outer profiler and the code it saw (also a pytest plugin)."""

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
        self.start()

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        self.stop()

    def start(self) -> None:
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

    def stop(self) -> None:
        self._disable(self.outer)
        cProfile.Profile.enable = self._enable
        cProfile.Profile.disable = self._disable
        self._harvest(self.outer)


def traffic() -> int:
    """Run every bench target, the check suite, the e2e workloads, the
    examples and the ablation benches, with their output discarded;
    returns the ablations' pytest status."""
    import pytest

    from repro.bench import TARGETS
    from repro.bench.parallel import run_campaign
    from repro.check import runner

    sys.dont_write_bytecode = True     # leave benchmarks/e2e untouched
    sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))
    import workloads

    examples = os.path.join(ROOT, "examples")
    with contextlib.redirect_stdout(io.StringIO()):
        for target in TARGETS:
            run_campaign(target)
        runner.main([])
        for name in workloads.WORKLOADS:
            workloads.build_workload(name, 0, 0.02).run()
        for fname in sorted(os.listdir(examples)):
            if fname.endswith(".py"):
                runpy.run_path(os.path.join(examples, fname),
                               run_name="__main__")
        # pytest-benchmark's timer would take the profiling hook away.
        return pytest.main(
            [os.path.join(ROOT, "benchmarks", "test_ablations.py"), "-q",
             "-p", "no:cacheprovider", "--benchmark-disable"])


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


def _first_line(fn) -> int:
    """A decorated function's code object starts at its first decorator."""
    return min([d.lineno for d in fn.decorator_list] + [fn.lineno])


def _walk(node, path, prefix, seen, out) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            if (path, _first_line(child)) not in seen:
                out.append((path, child.lineno, name,
                            child.end_lineno - child.lineno + 1))
                continue  # nested functions fold into this hit
            _walk(child, path, name + ".<locals>.", seen, out)
        elif isinstance(child, ast.ClassDef):
            _walk(child, path, prefix + child.name + ".", seen, out)
        else:
            _walk(child, path, prefix, seen, out)


def _print(title: str, seen: set[tuple[str, int]]) -> None:
    hits = never_called(seen)
    print(f"\n{title}:")
    for path, line, name, lines in hits:
        print(f"  {os.path.relpath(path, ROOT)}:{line} {name} ({lines} lines)")
    print(f"{len(hits)} functions, {sum(h[3] for h in hits)} lines")


def cited_units() -> dict[tuple[str, int], tuple[str, ast.AST]]:
    """``{(path, line): (name, node)}`` of every function or class under
    ``SRC`` that docs/PAPER_MAP.md names: ``path.py::Name`` or
    ``path.py::Class.member`` (a bare ``::name`` continues the row's
    last path), ``Class.member`` or a bare ``Name``, each backticked."""
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    for dirpath, _dirs, files in sorted(os.walk(SRC)):
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), path)
                for node in tree.body:
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                        defs.setdefault(node.name, []).append((path, node))

    def lookup(name: str, rel: str | None) -> list[tuple[str, ast.AST]]:
        top, _, member = name.partition(".")
        hits = [(p, n) for p, n in defs.get(top, ())
                if rel is None or p == os.path.join(SRC, rel)]
        if member:
            hits = [(p, m) for p, n in hits if isinstance(n, ast.ClassDef)
                    for m in n.body
                    if isinstance(m, ast.FunctionDef) and m.name == member]
        return hits

    path_ref = re.compile(r"((?:\w+/)*\w+\.py)(?:::([\w.]+))?")
    units = {}
    with open(PAPER_MAP) as fh:
        rows = fh.read().splitlines()
    for row in rows:
        last = None
        for span in re.findall(r"`([^`]+)`", row):
            if span.startswith("::"):
                span = f"{last}{span}"
            m = path_ref.fullmatch(span)
            if m:
                last, name = m.groups()
                rel = last
            elif re.fullmatch(r"[A-Z]\w*(?:\.\w+)?", span):
                name, rel = span, None
            else:
                continue
            for path, node in lookup(name, rel) if name else ():
                units[(path, node.lineno)] = (name, node)
    return units


def _reached(path: str, node: ast.AST, seen: set[tuple[str, int]]) -> bool:
    """A function ran, or some method of a class did (a class with no
    ``def`` of its own counts as reached: nothing of it can be seen)."""
    if isinstance(node, ast.FunctionDef):
        return (path, _first_line(node)) in seen
    fns = [n for n in ast.walk(node) if isinstance(n, ast.FunctionDef)]
    return not fns or any((path, _first_line(f)) in seen for f in fns)


def _print_cited(seen: set[tuple[str, int]]) -> None:
    hits = sorted((path, line, name) for (path, line), (name, node)
                  in cited_units().items() if not _reached(path, node, seen))
    print("\npaper-map units reached by no workload:")
    for path, line, name in hits:
        print(f"  {os.path.relpath(path, ROOT)}:{line} {name}")
    print(f"{len(hits)} units")


def main(argv: list[str]) -> int:
    import pytest

    census = Census()
    status = pytest.main(argv or ["-x", "-q"], plugins=[census])
    _print("never called under tier-1", census.seen)
    reached = Census()
    reached.start()
    try:
        ablations = traffic()
    finally:
        reached.stop()
    _print("reached by no workload", reached.seen)
    _print_cited(reached.seen)
    return int(status) or int(ablations)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
