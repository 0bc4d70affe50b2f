"""Unit + integration tests for the verbs layer: data movement, atomics,
SEND/RECV, doorbell batching, and validation."""

import pytest

from repro import build
from repro.verbs import Opcode, Sge, Worker, WorkRequest


@pytest.fixture()
def rig():
    sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(machine=0, size=64 * 1024, socket=0)
    rmr = ctx.register(machine=1, size=64 * 1024, socket=0)
    qp = ctx.create_qp(local=0, remote=1)
    w = Worker(ctx, machine=0, socket=0)
    return sim, ctx, lmr, rmr, qp, w


def run(sim, gen):
    return sim.run(until=sim.process(gen))


def test_write_moves_bytes(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    lmr.write(0, b"payload-bytes!")

    def client():
        comp = yield from w.write(qp, src=lmr[0:14], dst=rmr[512:526])
        return comp

    comp = run(sim, client())
    assert comp.ok
    assert rmr.read(512, 14) == b"payload-bytes!"


def test_read_moves_bytes_back(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    rmr.write(100, b"remote-data")

    def client():
        return (yield from w.read(qp, src=rmr[100:111], dst=lmr[64:75]))

    comp = run(sim, client())
    assert comp.ok
    assert lmr.read(64, 11) == b"remote-data"


def test_write_without_move_data_leaves_memory(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    lmr.write(0, b"zz")

    def client():
        return (yield from w.write(qp, src=lmr[0:2], dst=rmr[0:2], move_data=False))

    comp = run(sim, client())
    assert comp.ok
    assert rmr.read(0, 2) == b"\x00\x00"


def test_cas_success_and_failure(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    rmr.write_u64(0, 5)

    def client():
        c1 = yield from w.cas(qp, rmr, 0, compare=5, swap=9)
        c2 = yield from w.cas(qp, rmr, 0, compare=5, swap=11)
        return c1, c2

    c1, c2 = run(sim, client())
    assert c1.value == 5          # old value == compare -> swapped
    assert rmr.read_u64(0) == 9
    assert c2.value == 9          # compare failed, memory unchanged
    assert rmr.read_u64(0) == 9


def test_faa_returns_old_and_increments(rig):
    sim, ctx, lmr, rmr, qp, w = rig

    def client():
        vals = []
        for _ in range(3):
            comp = yield from w.faa(qp, rmr, 8, add=10)
            vals.append(comp.value)
        return vals

    assert run(sim, client()) == [0, 10, 20]
    assert rmr.read_u64(8) == 30


def test_atomics_serialize_from_two_clients(rig):
    """Concurrent FAAs from different machines never lose updates."""
    sim, ctx, lmr, rmr, qp, w = rig
    qp2 = ctx.create_qp(local=2, remote=1) if False else None
    # second client on machine 0 via its own QP
    qp_b = ctx.create_qp(local=0, remote=1, local_port=1)
    w_b = Worker(ctx, machine=0, socket=1)

    def client(worker, queue, n):
        for _ in range(n):
            yield from worker.faa(queue, rmr, 16, add=1)

    p1 = sim.process(client(w, qp, 20))
    p2 = sim.process(client(w_b, qp_b, 20))
    sim.run()
    assert rmr.read_u64(16) == 40


def test_sgl_write_gathers_segments(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    lmr.write(0, b"AAAA")
    lmr.write(1000, b"BBBB")
    lmr.write(2000, b"CCCC")
    wr = WorkRequest(
        Opcode.WRITE,
        sgl=[Sge(lmr, 0, 4), Sge(lmr, 1000, 4), Sge(lmr, 2000, 4)],
        remote_mr=rmr, remote_offset=256)

    def client():
        return (yield from w.execute(qp, wr))

    comp = run(sim, client())
    assert comp.ok and comp.byte_len == 12
    assert rmr.read(256, 12) == b"AAAABBBBCCCC"


def test_read_scatters_into_segments(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    rmr.write(0, b"0123456789AB")
    wr = WorkRequest(
        Opcode.READ,
        sgl=[Sge(lmr, 0, 6), Sge(lmr, 512, 6)],
        remote_mr=rmr, remote_offset=0)

    def client():
        return (yield from w.execute(qp, wr))

    run(sim, client())
    assert lmr.read(0, 6) == b"012345"
    assert lmr.read(512, 6) == b"6789AB"


def test_doorbell_batch_completions(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    lmr.write(0, bytes(range(32)))

    def client():
        wrs = [WorkRequest(Opcode.WRITE, wr_id=i,
                           sgl=[Sge(lmr, i * 8, 8)],
                           remote_mr=rmr, remote_offset=i * 8)
               for i in range(4)]
        events = yield from w.post_batch(qp, wrs)
        comps = []
        for ev in events:
            comps.append((yield from w.wait(ev)))
        return comps

    comps = run(sim, client())
    assert [c.wr_id for c in comps] == [0, 1, 2, 3]
    assert rmr.read(0, 32) == bytes(range(32))


def test_send_recv_channel_semantics(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    server = Worker(ctx, machine=1, socket=0)
    got = []

    def server_loop():
        comp = yield from server.recv(qp)
        got.append(comp.value)

    def client():
        yield from w.send(qp, {"op": "put", "k": 1}, payload_bytes=64)

    sim.process(server_loop())
    sim.process(client())
    sim.run()
    assert got == [{"op": "put", "k": 1}]


def test_unsignaled_write_produces_no_cqe(rig):
    sim, ctx, lmr, rmr, qp, w = rig

    def client():
        comp = yield from w.write(qp, src=lmr[0:8], dst=rmr[0:8], signaled=False)
        return comp

    comp = run(sim, client())
    assert comp.ok
    assert len(qp.cq) == 0


def _write64(lmr, rmr, i, move=True):
    return WorkRequest(Opcode.WRITE, wr_id=i, sgl=[Sge(lmr, i * 64, 64)],
                       remote_mr=rmr, remote_offset=i * 64, move_data=move)


def _post_signaling_every(w, qp, wrs, every):
    """Post ``wrs`` with every ``every``-th one signaled, waiting out the
    previous signaled WR after each signaled post, then wait the last WR
    (RC order: its completion covers every earlier one)."""
    pending = done = None
    for i, wr in enumerate(wrs, 1):
        wr.signaled = i % every == 0
        done = yield from w.post(qp, wr)
        if wr.signaled:
            if pending is not None:
                yield from w.wait(pending)
            pending = done
    yield done


def test_all_data_lands_despite_unsignaled_wrs(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    for i in range(10):
        lmr.write(i * 64, bytes([i + 1]) * 64)
    wrs = [_write64(lmr, rmr, i) for i in range(10)]

    run(sim, _post_signaling_every(w, qp, wrs, every=4))
    assert qp.cq.produced == 2             # only WRs 4 and 8 made CQEs
    for i in range(10):
        assert rmr.read(i * 64, 64) == bytes([i + 1]) * 64


def test_signaling_improves_small_write_rate(rig):
    """Skipping CQE DMAs + polls raises sync-ish throughput measurably."""
    sim, ctx, lmr, rmr, qp, w = rig

    def rate(every, n=200):
        t0 = sim.now
        wrs = [_write64(lmr, rmr, i % 16, move=False) for i in range(n)]
        run(sim, _post_signaling_every(w, qp, wrs, every))
        return n / (sim.now - t0)

    slow = rate(1)
    fast = rate(16)
    assert fast > slow


def test_signaled_write_pushes_cqe(rig):
    sim, ctx, lmr, rmr, qp, w = rig

    def client():
        yield from w.write(qp, src=lmr[0:8], dst=rmr[0:8])

    run(sim, client())
    assert qp.cq.produced == 1
    # Worker.wait paid the poll, so it reaped the CQE: reported once.
    assert qp.cq.consumed == 1
    assert qp.cq.poll() is None


def test_remote_oob_write_rejected(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    wr = WorkRequest(Opcode.WRITE, sgl=[Sge(lmr, 0, 64)],
                     remote_mr=rmr, remote_offset=rmr.size - 10)
    with pytest.raises(ValueError):
        wr.validate()


def test_unaligned_atomic_rejected(rig):
    _, _, lmr, rmr, qp, w = rig
    wr = WorkRequest(Opcode.CAS, remote_mr=rmr, remote_offset=3)
    with pytest.raises(ValueError):
        wr.validate()


def test_sge_bounds_validation(rig):
    _, _, lmr, _, _, _ = rig
    with pytest.raises(ValueError):
        Sge(lmr, lmr.size - 4, 8)


def test_worker_affinity_enforced(rig):
    sim, ctx, lmr, rmr, qp, w = rig
    foreign = Worker(ctx, machine=1, socket=0)

    def client():
        yield from foreign.write(qp, src=lmr[0:8], dst=rmr[0:8])

    with pytest.raises(ValueError):
        run(sim, client())


def test_loopback_qp_rejected(rig):
    _, ctx, *_ = rig
    with pytest.raises(ValueError):
        ctx.create_qp(local=0, remote=0)


def test_empty_doorbell_batch_rejected(rig):
    _, _, _, _, qp, _ = rig
    with pytest.raises(ValueError):
        qp.post_send_batch([])


def test_rc_ordering_same_qp(rig):
    """WRs posted back-to-back on one QP complete in order (RC)."""
    sim, ctx, lmr, rmr, qp, w = rig
    done_order = []

    def client():
        events = []
        for i in range(8):
            ev = yield from w.post(qp, WorkRequest(
                Opcode.WRITE, wr_id=i, sgl=[Sge(lmr, 0, 32)],
                remote_mr=rmr, remote_offset=0, move_data=False))
            events.append(ev)
        for ev in events:
            comp = yield from w.wait(ev)
            done_order.append(comp.wr_id)
        stamps = [ev.value.timestamp_ns for ev in events]
        assert stamps == sorted(stamps)

    run(sim, client())
    assert done_order == list(range(8))
