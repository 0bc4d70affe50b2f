"""The per-WR value objects (``Sge``, ``MrSlice``, ``Completion``) and
the region attributes every WR reads: bounds checks, immutability,
value equality, and the repr; and a ``WorkRequest``'s derived
lengths."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro import build
from repro.verbs import (Completion, CompletionStatus, MrSlice, Opcode, Sge,
                         WorkRequest)


@pytest.fixture
def regions():
    sim, cluster, ctx = build(machines=2)
    return ctx.register(0, 4096), ctx.register(1, 8192, socket=1)


@pytest.mark.parametrize("offset,length", [
    (-1, 8), (0, -1), (4096, 1), (4000, 97), (0, 4097)])
def test_sge_rejects_negative_and_overrunning_ranges(regions, offset, length):
    mr, _ = regions
    with pytest.raises(ValueError):
        Sge(mr, offset, length)


@pytest.mark.parametrize("offset,length", [
    (-1, 8), (0, -1), (4096, 1), (4000, 97), (0, 4097)])
def test_mr_slice_rejects_negative_and_overrunning_ranges(regions, offset,
                                                          length):
    mr, _ = regions
    with pytest.raises(ValueError):
        MrSlice(mr, offset, length)


def test_full_and_edge_ranges_are_accepted(regions):
    mr, _ = regions
    assert Sge(mr, 0, 4096).length == 4096
    assert Sge(mr, 4096, 0).offset == 4096
    assert MrSlice(mr, 4088, 8).length == 8
    assert mr[4096:].length == 0


def _values(mr):
    return [Sge(mr, 8, 16), MrSlice(mr, 8, 16),
            Completion(3, Opcode.READ, CompletionStatus.SUCCESS, 1.5,
                       byte_len=64)]


@pytest.mark.parametrize("index", range(3))
def test_values_refuse_attribute_assignment(regions, index):
    value = _values(regions[0])[index]
    for name in ("offset", "wr_id", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)


def test_equal_fields_compare_and_hash_equal(regions):
    mr, other = regions
    for a, b in zip(_values(mr), _values(mr)):
        assert a is not b
        assert a == b and hash(a) == hash(b)
    assert Sge(mr, 8, 16) != Sge(other, 8, 16)
    assert MrSlice(mr, 8, 16) != MrSlice(mr, 8, 24)
    assert (Completion(3, Opcode.READ, CompletionStatus.SUCCESS, 1.5)
            != Completion(3, Opcode.READ, CompletionStatus.SUCCESS, 2.5))


def test_completion_fields_defaults_and_repr():
    comp = Completion(wr_id=7, opcode=Opcode.FAA,
                      status=CompletionStatus.RETRY_EXC_ERR,
                      timestamp_ns=12.0)
    assert (comp.value, comp.byte_len, comp.retries) == (None, 0, 0)
    assert not comp.ok
    assert Completion(7, Opcode.FAA, CompletionStatus.SUCCESS, 1.0).ok
    text = repr(comp)
    assert text.startswith("Completion(")
    for name in ("wr_id=7", "opcode=", "status=", "timestamp_ns=12.0",
                 "value=None", "byte_len=0", "retries=0"):
        assert name in text


def test_region_attributes_equal_the_buffer(regions):
    for mr in regions:
        buf = mr.buffer
        assert (mr.size, mr.machine_id, mr.socket) == (
            buf.size, buf.machine_id, buf.socket)
    assert [(mr.size, mr.machine_id, mr.socket) for mr in regions] == [
        (4096, 0, 0), (8192, 1, 1)]


def test_n_sge_counts_an_empty_list_as_one(regions):
    mr, other = regions
    assert WorkRequest(Opcode.CAS, remote_mr=other).n_sge == 1
    assert WorkRequest(Opcode.WRITE, sgl=[Sge(mr, 0, 8)]).n_sge == 1
    assert WorkRequest(Opcode.WRITE,
                       sgl=[Sge(mr, 0, 8), Sge(mr, 64, 8)]).n_sge == 2


@pytest.mark.parametrize("opcode", list(Opcode))
def test_derived_lengths_cover_every_opcode(regions, opcode):
    """``total_length`` and ``n_sge`` are fixed at construction: a WRITE
    or READ sums its SGE lengths, a SEND moves ``payload_bytes``, CAS and
    FAA move 8, and an empty ``sgl`` counts as one SGE."""
    mr, other = regions
    sgl = [Sge(mr, 0, 24), Sge(mr, 512, 40), Sge(mr, 4000, 0)]
    wr = WorkRequest(opcode, sgl=sgl, remote_mr=other, payload_bytes=300)
    expected = {Opcode.WRITE: 64, Opcode.READ: 64, Opcode.SEND: 300,
                Opcode.CAS: 8, Opcode.FAA: 8}[opcode]
    assert (wr.total_length, wr.n_sge) == (expected, 3)
    one = WorkRequest(opcode, sgl=[Sge(mr, 8, 16)], payload_bytes=5)
    assert one.n_sge == 1
    assert one.total_length == {Opcode.SEND: 5, Opcode.CAS: 8,
                                Opcode.FAA: 8}.get(opcode, 16)
    empty = WorkRequest(opcode, remote_mr=other)
    assert empty.n_sge == 1
    assert empty.total_length == (8 if opcode.is_atomic else 0)


def test_replace_recomputes_the_derived_lengths(regions):
    mr, other = regions
    wr = WorkRequest(Opcode.WRITE, sgl=[Sge(mr, 0, 8)], remote_mr=other)
    two = dataclasses.replace(wr, sgl=[Sge(mr, 0, 8), Sge(mr, 64, 32)])
    assert (two.total_length, two.n_sge) == (40, 2)
    assert (wr.total_length, wr.n_sge) == (8, 1)
    send = dataclasses.replace(wr, opcode=Opcode.SEND, payload_bytes=77)
    assert (send.total_length, send.n_sge) == (77, 1)
    faa = dataclasses.replace(wr, opcode=Opcode.FAA, sgl=[])
    assert (faa.total_length, faa.n_sge) == (8, 1)
    # Derived fields are not constructor arguments, nor part of == or
    # the repr.
    with pytest.raises((TypeError, ValueError)):
        dataclasses.replace(wr, total_length=99)
    assert wr == dataclasses.replace(wr)
    assert "total_length" not in repr(wr) and "n_sge" not in repr(wr)


#: Fields a WR's derived lengths are computed from.
_LENGTH_INPUTS = frozenset({"opcode", "sgl", "payload_bytes"})
_MUTATORS = frozenset({"append", "extend", "insert", "pop", "remove",
                       "clear", "sort", "reverse", "__setitem__",
                       "__delitem__", "__iadd__"})


def _length_input_writes(tree: ast.AST) -> list[int]:
    """Lines that assign, delete or mutate in place an ``opcode``,
    ``sgl`` or ``payload_bytes`` attribute of anything but ``self``."""
    def foreign(node) -> bool:
        return (isinstance(node, ast.Attribute)
                and node.attr in _LENGTH_INPUTS
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "self"))

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                             ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if foreign(sub) or (isinstance(sub, ast.Subscript)
                                        and foreign(sub.value)):
                        lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in _MUTATORS
                    and foreign(func.value)):
                lines.append(node.lineno)
            if (isinstance(func, ast.Name) and func.id == "setattr"
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in _LENGTH_INPUTS):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_nothing_writes_a_length_input_after_construction():
    """A WR's derived lengths cannot go stale: no code in the package,
    its examples or its benchmarks reassigns or mutates ``opcode``,
    ``sgl`` or ``payload_bytes`` on an object it did not build itself
    (``self.<field> = ...`` in a constructor is how any class sets its
    own).  The scan catches a planted write."""
    root = Path(__file__).resolve().parents[1]
    offenders = []
    for base in ("src", "examples", "benchmarks"):
        for path in sorted((root / base).rglob("*.py")):
            for line in _length_input_writes(ast.parse(path.read_text())):
                offenders.append(f"{path.relative_to(root)}:{line}")
    assert offenders == []
    planted = ast.parse("wr.sgl = []\nwr.sgl.append(x)\nwr.opcode = op\n"
                        "wr.payload_bytes += 1\nwr.sgl[0] = s\n"
                        "setattr(wr, 'sgl', [])\nself.sgl = []\n")
    assert _length_input_writes(planted) == [1, 2, 3, 4, 5, 6]
