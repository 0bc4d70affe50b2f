"""Fast-path source rules (docs/PERFORMANCE.md, "Fast-path rules").

No function in ``repro`` writes a class attribute, except the allowlist
below.  In CPython 3.11 an assignment to a class attribute invalidates
the class's type version tag, and every specialized attribute access on
its instances deoptimizes until the tag is re-established: a counter
bumped on a class once per op (``QueuePair.total_completions += 1``)
cost ``verbs_mix`` ~10% host time.  Process-wide counters live on an
instance instead (``repro.verbs.qp.tally``).  Patching a method for the
length of a diagnostic run (the event census, the e2e ledger) happens
once per run, not per op, and is not what this scans for.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: ``(module, function, "Class.attr")`` writes that may stay: each runs
#: once per call of a dispatch loop, never per event or per op.
ALLOWED = {
    ("sim/engine.py", "run", "Simulator.total_events"),
    ("sim/engine.py", "step", "Simulator.total_events"),
}


def _class_names() -> set[str]:
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                names.add(node.name)
    return names


def _owner(node: ast.expr, classes: set[str]):
    """The class an assignment target's base names, else None: a class
    by name, ``cls``, ``type(x)`` or ``x.__class__``."""
    if isinstance(node, ast.Name) and (node.id in classes
                                       or node.id == "cls"):
        return node.id
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "type" and len(node.args) == 1):
        return "type(...)"
    if isinstance(node, ast.Attribute) and node.attr == "__class__":
        return "__class__"
    return None


def class_attribute_writes(source: str, classes: set[str],
                           module: str = "<src>") -> set[tuple]:
    """``(module, function, "Owner.attr", line)`` for every assignment to
    a class attribute inside a function body of ``source``."""
    found = set()
    for fn in ast.walk(ast.parse(source, module)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            while targets:
                t = targets.pop()
                if isinstance(t, (ast.Tuple, ast.List)):
                    targets.extend(t.elts)
                elif isinstance(t, ast.Attribute):
                    owner = _owner(t.value, classes)
                    if owner is not None:
                        found.add((module, fn.name, f"{owner}.{t.attr}",
                                   node.lineno))
    return found


def test_no_function_writes_a_class_attribute():
    classes = _class_names()
    writes = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        writes |= class_attribute_writes(path.read_text(), classes, module)
    unexpected = sorted(w for w in writes if w[:3] not in ALLOWED)
    assert not unexpected, unexpected
    assert {w[:3] for w in writes} == ALLOWED  # the allowlist is live


def test_the_scan_sees_every_spelling_of_a_class_attribute_write():
    source = '''
class Counter:
    hits = 0

    def bump(self):
        Counter.hits += 1
        type(self).hits = 2
        self.__class__.hits: int = 3
        self.hits, Counter.misses = 4, 5

    @classmethod
    def reset(cls):
        cls.hits = 0

def module_level_is_fine(obj):
    obj.hits = 1
    module.attr = 2
'''
    lines = {w[2] for w in class_attribute_writes(source, {"Counter"})}
    assert lines == {"Counter.hits", "type(...).hits", "__class__.hits",
                     "Counter.misses", "cls.hits"}
