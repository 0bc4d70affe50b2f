#!/usr/bin/env python
"""Docs linter: dead file references.

Scans ``docs/``, ``README.md``, and ``examples/`` for markdown links
``[text](path)`` whose relative target does not exist, and for
backtick-style file references (``docs/FOO.md``, ``tests/test_x.py``,
``examples/x.py``, ``src/repro/...py``) that no longer resolve against
the repo root.

``--catalog`` additionally cross-checks docs/BENCHMARKS.md against
``repro.bench.TARGETS`` (exactly one table row per target, no ghosts)
and parses every ``python -m repro.bench …`` /
``python -m repro.bench.perf …`` example in README.md and
``docs/*.md`` with the live argument parser, so a removed flag or
target cannot linger in the docs.

Run via ``make lint-docs`` (or ``make docs-check`` for the catalog
check too); both are part of ``make smoke``.  Exits non-zero with one
``path:line: problem`` per finding.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCAN = ["README.md", "docs", "examples"]

# [text](relative/path.md) — http(s) and pure-anchor links are skipped.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Backtick-ish repo paths in prose: docs/X.md, tests/x.py, examples/x.py,
# src/repro/....py, tools/x.py.
PATH_REF = re.compile(
    r"\b((?:docs|tests|examples|tools|src/repro(?:/[\w.]+)*)"
    r"/[\w.\-/]+\.(?:md|py))\b")
# A bench CLI invocation, up to a closing backtick or the end of the line.
CLI_EXAMPLE = re.compile(r"python -m (repro\.bench(?:\.perf)?)(?![\w.])"
                         r"([^`]*)")


def _files() -> list[Path]:
    out = []
    for entry in SCAN:
        p = REPO / entry
        if p.is_file():
            out.append(p)
        elif p.is_dir():
            out.extend(sorted(q for q in p.rglob("*")
                              if q.suffix in (".md", ".py")))
    return out


def check_references(path: Path, problems: list[str]) -> None:
    rel = path.relative_to(REPO)
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for m in MD_LINK.finditer(line):
            target = m.group(1).split("#", 1)[0]
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            if not (path.parent / target).exists():
                problems.append(f"{rel}:{lineno}: dead link ({m.group(1)})")
        for m in PATH_REF.finditer(line):
            if not (REPO / m.group(1)).exists():
                problems.append(
                    f"{rel}:{lineno}: dangling file reference "
                    f"({m.group(1)})")


def check_catalog(problems: list[str]) -> None:
    sys.path.insert(0, str(REPO / "src"))
    from repro.bench import TARGETS
    catalog = REPO / "docs" / "BENCHMARKS.md"
    if not catalog.exists():
        problems.append("docs/BENCHMARKS.md: missing (the target catalog)")
        return
    rows = set()
    for line in catalog.read_text().splitlines():
        m = re.match(r"\|\s*`([\w]+)`\s*\|", line)
        if m:
            rows.add(m.group(1))
    missing = sorted(set(TARGETS) - rows)
    ghosts = sorted(rows - set(TARGETS))
    for name in missing:
        problems.append(
            f"docs/BENCHMARKS.md: missing a row for target `{name}`")
    for name in ghosts:
        problems.append(
            f"docs/BENCHMARKS.md: row for `{name}` which is not in "
            "repro.bench.TARGETS")


def check_cli_examples(rel: str, lines: list[str],
                       problems: list[str]) -> None:
    """Parse each bench CLI example in ``lines`` with the live parser."""
    if str(REPO / "src") not in sys.path:
        sys.path.insert(0, str(REPO / "src"))
    from repro.bench import __main__ as bench_cli
    from repro.bench.perf import harness
    parsers = {"repro.bench": bench_cli.build_parser(),
               "repro.bench.perf": harness.build_parser()}
    for lineno, line in enumerate(lines, 1):
        for m in CLI_EXAMPLE.finditer(line):
            try:
                argv = shlex.split(m.group(2), comments=True)
                if not argv:  # the CLI named in prose, not an example
                    continue
                with contextlib.redirect_stderr(io.StringIO()):
                    parsers[m.group(1)].parse_args(argv)
            except (SystemExit, ValueError):
                problems.append(f"{rel}:{lineno}: stale CLI example "
                                f"({m.group(0).strip()})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--catalog", action="store_true",
                        help="also cross-check docs/BENCHMARKS.md rows "
                             "against repro.bench.TARGETS and parse every "
                             "bench CLI example with the live parser")
    args = parser.parse_args(argv)

    problems: list[str] = []
    files = _files()
    for path in files:
        check_references(path, problems)
    if args.catalog:
        check_catalog(problems)
        for path in [REPO / "README.md", *sorted(REPO.glob("docs/*.md"))]:
            check_cli_examples(str(path.relative_to(REPO)),
                               path.read_text().splitlines(), problems)
    for p in problems:
        print(p)
    scope = f"{len(files)} files" + (" + catalog" if args.catalog else "")
    if problems:
        print(f"lint-docs: {len(problems)} problem(s) across {scope}")
        return 1
    print(f"lint-docs: OK ({scope})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
