"""The per-WR value objects (``Sge``, ``MrSlice``, ``Completion``) and
the region attributes every WR reads: bounds checks, immutability,
value equality, and the repr."""

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
