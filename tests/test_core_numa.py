"""Tests for connection meshes and the proxy router."""

import pytest

from repro import build
from repro.core import ConnectionMesh, ProxySocketRouter
from repro.verbs import Worker


@pytest.fixture()
def rig():
    sim, cluster, ctx = build(machines=3)
    return sim, cluster, ctx


def test_matched_mesh_qp_count(rig):
    _, _, ctx = rig
    mesh = ConnectionMesh(ctx, local=0, remotes=[1, 2], style="matched")
    # s QPs per remote machine: 2 sockets x 2 remotes = 4.
    assert mesh.qp_count == 4


def test_all_to_all_mesh_qp_count(rig):
    _, _, ctx = rig
    mesh = ConnectionMesh(ctx, local=0, remotes=[1, 2], style="all_to_all")
    # s*s QPs per remote machine: 4 x 2 = 8 (the s-fold blowup of IV-B).
    assert mesh.qp_count == 8


def test_matched_mesh_rejects_cross_socket_qp(rig):
    _, _, ctx = rig
    mesh = ConnectionMesh(ctx, local=0, remotes=[1], style="matched")
    mesh.qp(1, 0)  # matched pair exists
    with pytest.raises(KeyError):
        mesh.qp(1, 0, remote_socket=1)


def test_mesh_style_validation(rig):
    _, _, ctx = rig
    with pytest.raises(ValueError):
        ConnectionMesh(ctx, 0, [1], style="mesh?")


def test_proxy_requires_matched_mesh(rig):
    _, _, ctx = rig
    mesh = ConnectionMesh(ctx, 0, [1], style="all_to_all")
    with pytest.raises(ValueError):
        ProxySocketRouter(ctx, 0, mesh)


def test_proxy_direct_path_for_affine_access(rig):
    sim, cluster, ctx = rig
    mesh = ConnectionMesh(ctx, 0, [1], style="matched")
    router = ProxySocketRouter(ctx, 0, mesh)
    router.start()
    lmr = ctx.register(0, 4096, socket=0)
    rmr = ctx.register(1, 4096, socket=0)   # same socket as worker
    w = Worker(ctx, 0, socket=0)
    lmr.write(0, b"direct")

    def client():
        comp = yield from router.write(w, 1, lmr, 0, rmr, 0, 6)
        assert comp.ok
        router.stop()

    sim.run(until=sim.process(client()))
    assert router.direct == 1 and router.proxied == 0
    assert rmr.read(0, 6) == b"direct"


def test_proxy_routes_cross_socket_access(rig):
    sim, cluster, ctx = rig
    mesh = ConnectionMesh(ctx, 0, [1], style="matched")
    router = ProxySocketRouter(ctx, 0, mesh)
    router.start()
    lmr = ctx.register(0, 4096, socket=1)   # proxy socket's memory
    rmr = ctx.register(1, 4096, socket=1)   # remote socket 1
    w = Worker(ctx, 0, socket=0)            # client on socket 0
    lmr.write(0, b"proxied")

    def client():
        comp = yield from router.write(w, 1, lmr, 0, rmr, 0, 7)
        assert comp.ok
        router.stop()

    sim.run(until=sim.process(client()))
    assert router.proxied == 1 and router.direct == 0
    assert rmr.read(0, 7) == b"proxied"


def test_proxy_read_and_atomics(rig):
    sim, cluster, ctx = rig
    mesh = ConnectionMesh(ctx, 0, [1], style="matched")
    router = ProxySocketRouter(ctx, 0, mesh)
    router.start()
    lmr = ctx.register(0, 4096, socket=0)
    rmr = ctx.register(1, 4096, socket=1)
    rmr.write(64, b"remote-bytes")
    w = Worker(ctx, 0, socket=0)

    def client():
        comp = yield from router.read(w, 1, lmr, 0, rmr, 64, 12)
        assert comp.ok
        c2 = yield from router.faa(w, 1, rmr, 0, add=7)
        assert c2.value == 0
        c3 = yield from router.cas(w, 1, rmr, 8, compare=0, swap=5)
        assert c3.value == 0
        router.stop()

    sim.run(until=sim.process(client()))
    assert lmr.read(0, 12) == b"remote-bytes"
    assert rmr.read_u64(0) == 7
    assert rmr.read_u64(8) == 5
    assert router.proxied == 3


def test_proxy_costs_ipc_but_avoids_qpi_storms(rig):
    """The proxied path is slower than affine-direct (it pays 2 IPC hops),
    but remains cheaper than issuing cross-socket on every transaction
    for larger transfers."""
    sim, cluster, ctx = rig
    mesh = ConnectionMesh(ctx, 0, [1], style="matched")
    router = ProxySocketRouter(ctx, 0, mesh)
    router.start()
    lmr0 = ctx.register(0, 8192, socket=0)
    rmr0 = ctx.register(1, 8192, socket=0)
    lmr1 = ctx.register(0, 8192, socket=1)
    rmr1 = ctx.register(1, 8192, socket=1)
    w = Worker(ctx, 0, socket=0)
    t = {}

    def client():
        t0 = sim.now
        yield from router.write(w, 1, lmr0, 0, rmr0, 0, 64, move_data=False)
        t["direct"] = sim.now - t0
        t0 = sim.now
        yield from router.write(w, 1, lmr1, 0, rmr1, 0, 64, move_data=False)
        t["proxied"] = sim.now - t0
        router.stop()

    sim.run(until=sim.process(client()))
    assert t["proxied"] > t["direct"]
    # The detour costs about two IPC hops.
    assert t["proxied"] - t["direct"] < 4 * ctx.params.proxy_ipc_ns
