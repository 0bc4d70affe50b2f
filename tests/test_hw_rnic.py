"""Unit tests for the RNIC, PCIe, switch, machine and cluster models."""

import types

import pytest

from repro.check.stepped import dma, exec_atomic, exec_tx
from repro.hw import (Cluster, HardwareParams, NumaTopology, PcieLink,
                      SingleSwitchFabric)
from repro.sim import Simulator


@pytest.fixture()
def setup():
    sim = Simulator()
    params = HardwareParams()
    cluster = Cluster(sim, params, machines=2)
    return sim, params, cluster


def test_cluster_shape(setup):
    sim, params, cluster = setup
    assert len(cluster) == 2
    m = cluster[0]
    assert len(m.ports) == params.ports_per_rnic
    assert m.port(0).socket == 0
    assert m.port(1).socket == 1


def test_port_for_socket(setup):
    _, _, cluster = setup
    m = cluster[0]
    assert m.port_for_socket(0) is m.port(0)
    assert m.port_for_socket(1) is m.port(1)


def test_tx_occupancy_exec_bound_below_knee(setup):
    """Small payloads: execution unit dominates (packet throttling)."""
    _, params, cluster = setup
    port = cluster[0].port(0)
    occ32 = port.tx_occupancy_ns(params.exec_write_ns, 32)
    occ256 = port.tx_occupancy_ns(params.exec_write_ns, 256)
    assert occ32 == occ256 == params.exec_write_ns


def test_tx_occupancy_wire_bound_above_knee(setup):
    _, params, cluster = setup
    port = cluster[0].port(0)
    occ8k = port.tx_occupancy_ns(params.exec_write_ns, 8192)
    assert occ8k == pytest.approx(params.wire_time(8192))
    assert occ8k > params.exec_write_ns


def test_tx_occupancy_sge_overhead(setup):
    _, params, cluster = setup
    port = cluster[0].port(0)
    one = port.tx_occupancy_ns(params.exec_write_ns, 128, n_sge=1)
    four = port.tx_occupancy_ns(params.exec_write_ns, 128, n_sge=4)
    assert four == pytest.approx(one + 3 * params.sge_overhead_ns)


def test_tx_occupancy_sge_validation(setup):
    _, params, cluster = setup
    port = cluster[0].port(0)
    with pytest.raises(ValueError):
        port.tx_occupancy_ns(100.0, 32, n_sge=0)
    with pytest.raises(ValueError):
        port.tx_occupancy_ns(100.0, 32, n_sge=params.max_sge + 1)


def test_exec_tx_serializes_wqes(setup):
    """Two concurrent WQEs on one port take 2x the time of one."""
    sim, params, cluster = setup
    port = cluster[0].port(0)
    done = []

    def op(tag):
        yield from exec_tx(port, params.exec_write_ns, 32)
        done.append((tag, sim.now))

    sim.process(op("a"))
    sim.process(op("b"))
    sim.run()
    assert done[0][1] == pytest.approx(params.exec_write_ns)
    assert done[1][1] == pytest.approx(2 * params.exec_write_ns)
    assert port.tx_ops == 2


def test_exec_atomic_serializes(setup):
    sim, params, cluster = setup
    port = cluster[0].port(0)
    times = []

    def op():
        yield from exec_atomic(port)
        times.append(sim.now)

    for _ in range(3):
        sim.process(op())
    sim.run()
    assert times == pytest.approx(
        [params.exec_atomic_ns * i for i in (1, 2, 3)]
    )


def test_translation_shared_across_ports(setup):
    """Both ports share one SRAM: a page warmed via port 0 hits via port 1."""
    _, _, cluster = setup
    rnic = cluster[0].rnic
    mr = types.SimpleNamespace(key_base=1 << 32, page_size=4096)
    assert rnic.translate(mr, 0, 8) > 0
    assert rnic.translate(mr, 8, 8) == 0.0


def test_qp_context_thrash(setup):
    _, params, cluster = setup
    rnic = cluster[0].rnic
    n = params.qp_cache_entries
    for qp in range(n + 1):
        rnic.qp_cache.lookup(qp)
    # Cache overflowed: re-touching qp 0 (evicted) misses again.
    assert rnic.qp_cache.lookup(0) == params.qp_miss_penalty_ns


def test_pcie_dma_charges_transfer_time():
    sim = Simulator()
    params = HardwareParams()
    topo = NumaTopology(params)
    link = PcieLink(sim, params, topo, socket=0)

    def op():
        yield from dma(link, 1024, mem_socket=0)

    p = sim.process(op())
    sim.run(until=p)
    assert sim.now == pytest.approx(params.pcie_time(1024))
    assert link.dma_bytes == 1024


def test_pcie_dma_cross_socket_penalty():
    sim = Simulator()
    params = HardwareParams()
    topo = NumaTopology(params)
    link = PcieLink(sim, params, topo, socket=0)

    def op():
        yield from dma(link, 64, mem_socket=1)

    p = sim.process(op())
    sim.run(until=p)
    slowdown = (64 / params.pcie_bandwidth_Bns
                * (1 / params.cross_dma_bw_factor - 1))
    assert sim.now == pytest.approx(
        params.pcie_time(64) + params.qpi_hop_ns + slowdown)


def test_pcie_dma_negative_size():
    sim = Simulator()
    params = HardwareParams()
    link = PcieLink(sim, params, NumaTopology(params), socket=0)

    def op():
        yield from dma(link, -1, mem_socket=0)

    p = sim.process(op())
    with pytest.raises(ValueError):
        sim.run(until=p)


def test_switch_needs_two_ports():
    with pytest.raises(ValueError):
        SingleSwitchFabric(Simulator(), HardwareParams(), ports=1)


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster(Simulator(), HardwareParams(), machines=0)
