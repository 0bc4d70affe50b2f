"""The documentation must run: execute every Python block in TUTORIAL.md.

Blocks share one namespace in order (the tutorial builds context
progressively), so a doc drift that breaks a snippet fails here.
"""

import ast
import re
from pathlib import Path

import pytest

DOCS = Path(__file__).resolve().parent.parent / "docs"


def python_blocks(path: Path) -> list[str]:
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def test_tutorial_blocks_execute():
    blocks = python_blocks(DOCS / "TUTORIAL.md")
    assert len(blocks) >= 7
    namespace: dict = {}
    for i, block in enumerate(blocks):
        try:
            exec(compile(block, f"TUTORIAL.md[block {i}]", "exec"),
                 namespace)
        except Exception as exc:  # pragma: no cover - assertion context
            pytest.fail(f"tutorial block {i} failed: {exc!r}\n{block}")


def test_readme_quickstart_executes():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = python_blocks(readme)
    assert blocks, "README lost its quickstart snippet"
    namespace: dict = {}
    exec(compile(blocks[0], "README.md[quickstart]", "exec"), namespace)


def test_docs_exist_and_are_substantial():
    for name in ("COST_MODEL.md", "ARCHITECTURE.md", "TUTORIAL.md",
                 "PAPER_MAP.md", "TENANCY.md", "RELIABILITY.md",
                 "PERFORMANCE.md", "TXN.md", "FABRIC.md",
                 "BENCHMARKS.md"):
        path = DOCS / name
        assert path.exists(), f"missing docs/{name}"
        assert len(path.read_text()) > 2000


def test_lint_docs_flags_a_stale_cli_example():
    """`make docs-check` parses every bench CLI example in the docs with
    the live parser; a removed flag must be reported exactly once."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "lint_docs", DOCS.parent / "tools" / "lint_docs.py")
    lint_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint_docs)
    problems: list[str] = []
    lint_docs.check_cli_examples("docs/X.md", [
        "python -m repro.bench fig6 --jobs 4 --chunk 8 # pin the chunk",
        "python -m repro.bench fig6 --jobs auto        # every core",
        "see `python -m repro.bench.perf census fig1` and",
        "`python -m repro.bench",
        "`python -m repro.bench.perf run --quick`",
        "python -m repro.bench fig1 --no-cache",
    ], problems)
    assert problems == [
        "docs/X.md:1: stale CLI example "
        "(python -m repro.bench fig6 --jobs 4 --chunk 8 # pin the chunk)",
        "docs/X.md:5: stale CLI example "
        "(python -m repro.bench.perf run --quick)",
        "docs/X.md:6: stale CLI example "
        "(python -m repro.bench fig1 --no-cache)"]


def _defined_names(tree) -> dict:
    """Top-level names of a module, each mapped to its members: a
    class's methods, class attributes and ``self.x`` assignments."""
    def members(cls) -> set:
        out = set()
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Store) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "self":
                out.add(node.attr)
        return out

    names: dict = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = members(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = set()
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = set()
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names[node.target.id] = set()
    return names


def _resolves(names: dict, ref: str) -> bool:
    """``Name`` or ``Class.member`` against :func:`_defined_names`."""
    owner, _, member = ref.partition(".")
    return owner in names and (not member or member in names[owner])


def test_paper_map_references_resolve():
    """Every code reference in the paper map resolves: a path (under
    ``src/repro`` unless it starts at the repo root, ``tests/`` or
    ``benchmarks/``) with an optional ``::Name`` or ``::Class.member``
    (a bare ``::name`` continues the row's last path), a backticked
    ``Class.member`` of some class under ``src/repro``, and every
    ``bench.*`` target."""
    root = DOCS.parent
    src = root / "src" / "repro"
    text = (DOCS / "PAPER_MAP.md").read_text()

    classes: dict = {}
    for path in src.rglob("*.py"):
        for name, members in _defined_names(
                ast.parse(path.read_text())).items():
            if members:
                classes.setdefault(name, set()).update(members)

    path_ref = re.compile(r"((?:\w+/)+|(?:\w+/)*\w+\.py)(?:::([\w.]+))?$")
    resolved = 0
    for row in text.splitlines():
        last = None
        for span in re.findall(r"`([^`]+)`", row):
            if span.startswith("::"):
                span = f"{last}{span}"
            m = path_ref.fullmatch(span)
            if m:
                rel, name = m.groups()
                base = root if rel.split("/")[0] in (
                    "tests", "benchmarks") else src
                assert (base / rel).exists(), \
                    f"paper map points at missing {rel}"
                if name:
                    names = _defined_names(ast.parse(
                        (base / rel).read_text()))
                    assert _resolves(names, name), \
                        f"paper map: {rel} defines no {name}"
                last = rel
                resolved += 1
            elif re.fullmatch(r"[A-Z]\w*\.\w+", span):
                assert _resolves(classes, span), \
                    f"paper map: no class under src/repro defines {span}"
                resolved += 1
    assert resolved >= 50

    from repro.bench import TARGETS
    known = set(TARGETS) | {path.rsplit(".", 1)[1]
                            for path in TARGETS.values()}
    for match in re.findall(r"`bench\.(\w+)`", text):
        assert match in known, f"paper map names unknown bench target {match}"
