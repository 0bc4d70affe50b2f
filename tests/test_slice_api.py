"""Tests for the slice-based verbs API: ``MrSlice`` views, the
``src=``/``dst=`` transfer form, the unified ``send(wait=)`` entry
point, and ``raise_on_error`` semantics."""

import pytest

from repro import build
from repro.verbs import (
    CompletionError,
    CompletionStatus,
    MrSlice,
    Worker,
)


def _rig():
    sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 4096)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    return sim, ctx, qp, w, lmr, rmr


# ------------------------------------------------------------------- MrSlice
def test_slice_and_getitem_agree():
    sim, ctx, qp, w, lmr, rmr = _rig()
    assert lmr.slice(64, 128) == lmr[64:192]
    assert lmr[:256] == MrSlice(lmr, 0, 256)
    assert lmr[256:] == MrSlice(lmr, 256, 4096 - 256)
    assert len(lmr[10:20]) == 10


def test_slice_bounds_are_checked():
    sim, ctx, qp, w, lmr, rmr = _rig()
    with pytest.raises(ValueError):
        lmr.slice(0, 4097)
    with pytest.raises(ValueError):
        lmr.slice(4096, 1)
    with pytest.raises(ValueError):
        MrSlice(lmr, 10, -1)
    with pytest.raises(ValueError):
        lmr[0:100:2]                     # strides make no sense on wires
    with pytest.raises(ValueError):
        lmr[-10:]                        # and neither do negative offsets
    with pytest.raises(TypeError):
        lmr[5]                           # single index: not a byte range


def test_subslice_is_relative_and_checked():
    sim, ctx, qp, w, lmr, rmr = _rig()
    s = lmr[100:200]
    assert s.slice(10, 20) == MrSlice(lmr, 110, 20)
    with pytest.raises(ValueError):
        s.slice(90, 20)                  # runs past the parent view


# ------------------------------------------------------- src=/dst= transfers
def test_write_moves_src_slice_to_dst_slice():
    sim, ctx, qp, w, lmr, rmr = _rig()
    lmr.write(7, b"payload!")

    def client():
        comp = yield from w.write(qp, src=lmr[7:15], dst=rmr[100:108])
        assert comp.ok and comp.byte_len == 8

    sim.run(until=sim.process(client()))
    assert rmr.read(100, 8) == b"payload!"


def test_read_pulls_src_slice_into_dst_slice():
    sim, ctx, qp, w, lmr, rmr = _rig()
    rmr.write(300, b"remote-bytes")

    def client():
        comp = yield from w.read(qp, src=rmr[300:312], dst=lmr[0:12])
        assert comp.ok

    sim.run(until=sim.process(client()))
    assert lmr.read(0, 12) == b"remote-bytes"


def test_bare_region_means_whole_region():
    sim, ctx, qp, w, lmr, rmr = _rig()
    lmr.write(0, bytes(range(64)))

    def client():
        comp = yield from w.write(qp, src=lmr, dst=rmr)
        assert comp.ok and comp.byte_len == lmr.size

    sim.run(until=sim.process(client()))
    assert rmr.read(0, 64) == bytes(range(64))


def test_mismatched_lengths_and_mixed_forms_are_rejected():
    sim, ctx, qp, w, lmr, rmr = _rig()
    with pytest.raises(ValueError, match="64 bytes but dst is 32"):
        next(w.write(qp, src=lmr[0:64], dst=rmr[0:32]))
    with pytest.raises(TypeError, match="requires both"):
        next(w.write(qp, src=lmr[0:64]))
    with pytest.raises(TypeError, match="positional"):
        next(w.write(qp, lmr, 0, rmr, 0, 64))
    with pytest.raises(TypeError, match="src must be"):
        next(w.write(qp, src=b"raw", dst=rmr[0:3]))


# ------------------------------------------------------------ send(wait=...)
def test_send_unified_entry_point():
    sim, ctx, qp, w, lmr, rmr = _rig()
    server_saw = []

    def server():
        comp = yield from Worker(ctx, 1).recv(qp)
        server_saw.append(comp.value)

    def client():
        comp = yield from w.send(qp, {"rpc": 1}, 64)
        assert comp.ok

    sim.process(server())
    sim.run(until=sim.process(client()))
    assert server_saw == [{"rpc": 1}]


def test_send_nowait_returns_event_and_posts_unsignaled():
    sim, ctx, qp, w, lmr, rmr = _rig()
    got = {}

    def client():
        ev = yield from w.send(qp, "fire-and-forget", 32, wait=False)
        got["event"] = ev
        comp = yield from w.wait(ev)
        got["comp"] = comp

    sim.run(until=sim.process(client()))
    assert got["comp"].ok
    # Unsignaled: the payload completion never hit the CQ.
    assert len(qp.cq) == 0


# ------------------------------------------------------------ raise_on_error
def test_wait_raises_completion_error_when_asked():
    from repro.hw import FaultInjector, HardwareParams

    sim, cluster, ctx = build(machines=2,
                              params=HardwareParams(retry_cnt=1))
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 4096)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    FaultInjector(sim).port_down(qp.local_port)
    caught = {}

    def client():
        try:
            yield from w.write(qp, src=lmr[0:64], dst=rmr[0:64],
                               raise_on_error=True)
        except CompletionError as exc:
            caught["exc"] = exc

    sim.run(until=sim.process(client()))
    exc = caught["exc"]
    assert exc.completion.status is CompletionStatus.RETRY_EXC_ERR
    assert "retry_exceeded" in str(exc)


def test_wait_returns_error_completion_by_default():
    from repro.hw import FaultInjector, HardwareParams

    sim, cluster, ctx = build(machines=2,
                              params=HardwareParams(retry_cnt=1))
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 4096)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    FaultInjector(sim).port_down(qp.local_port)
    box = {}

    def client():
        box["comp"] = yield from w.write(qp, src=lmr[0:64], dst=rmr[0:64])

    sim.run(until=sim.process(client()))
    assert box["comp"].status is CompletionStatus.RETRY_EXC_ERR
