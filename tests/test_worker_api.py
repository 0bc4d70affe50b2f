"""Coverage for the Worker CPU-accounting API and context plumbing."""

import pytest

from repro import build
from repro.hw.dram import AccessPattern
from repro.verbs import Worker


@pytest.fixture()
def rig():
    sim, cluster, ctx = build(machines=2)
    return sim, cluster, ctx


def run(sim, gen):
    return sim.run(until=sim.process(gen))


def test_compute_charges_time_and_accounting(rig):
    sim, cluster, ctx = rig
    w = Worker(ctx, 0)

    def client():
        yield from w.compute(123.0)
        yield from w.compute(77.0)

    run(sim, client())
    assert sim.now == 200.0
    assert w.cpu_busy_ns == 200.0


def test_compute_rejects_negative(rig):
    sim, cluster, ctx = rig
    w = Worker(ctx, 0)

    def client():
        yield from w.compute(-1.0)

    with pytest.raises(ValueError):
        run(sim, client())


def test_compute_rejects_nan_and_leaves_cpu_time_untouched(rig):
    sim, cluster, ctx = rig
    w = Worker(ctx, 0)

    def client():
        yield from w.compute(10.0)
        yield from w.compute(float("nan"))

    with pytest.raises(ValueError, match="compute"):
        run(sim, client())
    assert w.cpu_busy_ns == 10.0


def test_memcpy_numa_aware_costs(rig):
    sim, cluster, ctx = rig
    w = Worker(ctx, 0, socket=0)
    costs = {}

    def client():
        t0 = sim.now
        yield from w.memcpy(4096)
        costs["local"] = sim.now - t0
        t0 = sim.now
        yield from w.memcpy(4096, src_socket=1)
        costs["cross"] = sim.now - t0

    run(sim, client())
    assert costs["cross"] > costs["local"]


def test_local_read_write_patterns(rig):
    sim, cluster, ctx = rig
    w = Worker(ctx, 0)
    costs = {}

    def client():
        t0 = sim.now
        yield from w.local_write(64, AccessPattern.SEQUENTIAL)
        costs["seq_w"] = sim.now - t0
        t0 = sim.now
        yield from w.local_write(64, AccessPattern.RANDOM)
        costs["rand_w"] = sim.now - t0
        t0 = sim.now
        yield from w.local_read(64, AccessPattern.RANDOM, mem_socket=1)
        costs["remote_rand_r"] = sim.now - t0

    run(sim, client())
    assert costs["rand_w"] > costs["seq_w"]
    assert costs["remote_rand_r"] > costs["rand_w"]


def test_worker_default_names_and_ops_counter(rig):
    sim, cluster, ctx = rig
    w = Worker(ctx, 1, socket=1)
    assert w.name == "w1.1"
    lmr = ctx.register(1, 4096)
    rmr = ctx.register(0, 4096)
    qp = ctx.create_qp(1, 0)

    def client():
        for _ in range(3):
            yield from w.write(qp, src=lmr[0:8], dst=rmr[0:8], move_data=False)

    run(sim, client())
    assert w.ops == 3


def test_mmio_cost_depends_on_port_socket(rig):
    """Posting to a cross-socket port costs the worker extra CPU time."""
    sim, cluster, ctx = rig
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 4096)
    qp_near = ctx.create_qp(0, 1, local_port=0)
    qp_far = ctx.create_qp(0, 1, local_port=1)
    w = Worker(ctx, 0, socket=0)
    busy = {}

    def client():
        b0 = w.cpu_busy_ns
        ev = yield from w.post(qp_near, _wr(lmr, rmr))
        busy["near"] = w.cpu_busy_ns - b0
        yield from w.wait(ev)
        b0 = w.cpu_busy_ns
        ev = yield from w.post(qp_far, _wr(lmr, rmr))
        busy["far"] = w.cpu_busy_ns - b0
        yield from w.wait(ev)

    def _wr(l, r):
        from repro.verbs import Opcode, Sge, WorkRequest
        return WorkRequest(Opcode.WRITE, sgl=[Sge(l, 0, 8)], remote_mr=r,
                           remote_offset=0, move_data=False)

    run(sim, client())
    assert busy["far"] == pytest.approx(
        busy["near"] + ctx.params.qpi_hop_ns)


def test_sge_build_cost_scales(rig):
    """Building a WR with many SGEs costs more WQE-prep CPU."""
    sim, cluster, ctx = rig
    from repro.verbs import Opcode, Sge, WorkRequest
    lmr = ctx.register(0, 1 << 16)
    rmr = ctx.register(1, 1 << 16)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    busy = {}

    def client():
        b0 = w.cpu_busy_ns
        ev = yield from w.post(qp, WorkRequest(
            Opcode.WRITE, sgl=[Sge(lmr, 0, 32)], remote_mr=rmr,
            remote_offset=0, move_data=False))
        busy[1] = w.cpu_busy_ns - b0
        yield from w.wait(ev)
        b0 = w.cpu_busy_ns
        ev = yield from w.post(qp, WorkRequest(
            Opcode.WRITE, sgl=[Sge(lmr, i * 64, 32) for i in range(8)],
            remote_mr=rmr, remote_offset=0, move_data=False))
        busy[8] = w.cpu_busy_ns - b0
        yield from w.wait(ev)

    run(sim, client())
    assert busy[8] > busy[1]


def test_cluster_iteration_and_indexing(rig):
    sim, cluster, ctx = rig
    assert len(cluster) == 2
    ids = [m.machine_id for m in cluster]
    assert ids == [0, 1]
    assert cluster[1].machine_id == 1


def test_port_for_socket_many_sockets():
    from repro.hw import HardwareParams
    sim, cluster, ctx = build(
        machines=1,
        params=HardwareParams().derive(sockets_per_machine=4,
                                       ports_per_rnic=2))
    m = cluster[0]
    # Ports sit on sockets 0 and 1; sockets 2/3 map to the nearest port.
    assert m.port_for_socket(0).socket == 0
    assert m.port_for_socket(1).socket == 1
    assert m.port_for_socket(2).socket in (0, 1)
    assert m.port_for_socket(3).socket in (0, 1)
