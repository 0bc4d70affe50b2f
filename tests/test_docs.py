"""The documentation must run: execute every Python block in TUTORIAL.md.

Blocks share one namespace in order (the tutorial builds context
progressively), so a doc drift that breaks a snippet fails here.
"""

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
        "see `python -m repro.bench.parallel fig5 --jobs 2` and",
        "`python -m repro.bench",
    ], problems)
    assert problems == [
        "docs/X.md:1: stale CLI example "
        "(python -m repro.bench fig6 --jobs 4 --chunk 8 # pin the chunk)"]


def test_paper_map_references_resolve():
    """Every test/bench path named in the paper map must exist."""
    import re
    root = DOCS.parent
    text = (DOCS / "PAPER_MAP.md").read_text()
    for match in re.findall(r"`(tests/[\w/]+\.py)", text):
        assert (root / match).exists(), f"paper map points at missing {match}"
    from repro.bench import TARGETS
    known = set(TARGETS) | {path.rsplit(".", 1)[1]
                            for path in TARGETS.values()}
    for match in re.findall(r"`bench\.(\w+)`", text):
        assert match in known, f"paper map names unknown bench target {match}"
