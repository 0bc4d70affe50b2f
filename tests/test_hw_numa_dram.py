"""Unit tests for the NUMA topology and DRAM cost models."""

import pytest

from repro.hw import HardwareParams, NumaTopology
from repro.hw.dram import AccessPattern, DramModel


@pytest.fixture()
def topo():
    return NumaTopology(HardwareParams())


@pytest.fixture()
def dram(topo):
    return DramModel(HardwareParams(), topo)


def test_hops_dual_socket(topo):
    assert topo.hops(0, 0) == 0
    assert topo.hops(0, 1) == 1
    assert topo.hops(1, 0) == 1


def test_hops_four_socket_ring():
    topo = NumaTopology(HardwareParams().derive(sockets_per_machine=4))
    assert topo.hops(0, 2) == 2
    assert topo.hops(0, 3) == 1  # ring wraps


def test_hops_out_of_range(topo):
    with pytest.raises(ValueError):
        topo.hops(0, 2)


def test_cross_penalty(topo):
    p = HardwareParams()
    assert topo.cross_penalty(0, 0) == 0.0
    assert topo.cross_penalty(0, 1) == p.qpi_hop_ns


def test_dram_latency_matches_table2(topo):
    assert topo.dram_latency(0, 0) == 92.0
    assert topo.dram_latency(0, 1) == 162.0


def test_dram_bandwidth_matches_table2(topo):
    assert topo.dram_bandwidth(0, 0) == pytest.approx(3.70)
    assert topo.dram_bandwidth(0, 1) == pytest.approx(2.27)


def test_dma_time_includes_qpi_crossing(topo):
    p = HardwareParams()
    local = topo.dma_time(0, 0, 1024)
    cross = topo.dma_time(0, 1, 1024)
    stream = 1024 / p.pcie_bandwidth_Bns
    slowdown = stream * (1 / p.cross_dma_bw_factor - 1)
    assert cross == pytest.approx(local + p.qpi_hop_ns + slowdown)


def test_cross_dma_bandwidth_throttled(topo):
    """Large cross-socket DMAs run at roughly half rate."""
    p = HardwareParams()
    big = 1 << 20
    local = topo.dma_time(0, 0, big) - p.pcie_tlp_ns
    cross = topo.dma_time(0, 1, big) - p.pcie_tlp_ns - p.qpi_hop_ns
    assert cross == pytest.approx(local / p.cross_dma_bw_factor, rel=0.01)


def test_mmio_time(topo):
    """The doorbell cost table ``Worker`` charges a post from."""
    p = HardwareParams()
    assert topo._mmio[1][1] == p.mmio_ns
    assert topo._mmio[0][1] == p.mmio_ns + p.qpi_hop_ns


def test_local_seq_write_faster_than_random(dram):
    seq = dram.write_ns(64, AccessPattern.SEQUENTIAL)
    rand = dram.write_ns(64, AccessPattern.RANDOM)
    # Paper Section I: sequential write ~2.92x faster than random write.
    assert 2.0 < rand / seq < 4.0


def test_local_read_asymmetry_4_to_8x(dram):
    seq = dram.read_ns(8, AccessPattern.SEQUENTIAL)
    rand = dram.read_ns(8, AccessPattern.RANDOM)
    # Section III-B discussion: local asymmetry is 4x~8x.
    assert 4.0 <= rand / seq <= 8.0


def test_inter_socket_random_write_much_slower(dram):
    local_seq = dram.write_ns(64, AccessPattern.SEQUENTIAL, 0, 0)
    remote_rand = dram.write_ns(64, AccessPattern.RANDOM, 0, 1)
    # Section I: inter-socket random write ~6.85x slower than seq write.
    assert 4.0 < remote_rand / local_seq < 10.0


def test_writev_cheaper_per_entry_than_singles(dram):
    batched = dram.writev_ns([64] * 16) / 16
    single = dram.write_ns(64, AccessPattern.SEQUENTIAL)
    assert batched < single


def test_readv_dearer_than_writev(dram):
    # Fig 4: Local-R sits below Local-W.
    assert dram.readv_ns([32] * 8) > dram.writev_ns([32] * 8)


def test_memcpy_scales_with_bytes(dram):
    assert dram.memcpy_ns(4096) > dram.memcpy_ns(64)


def test_memcpy_cross_socket_slower(dram):
    assert dram.memcpy_ns(4096, 0, 1, 0) > dram.memcpy_ns(4096, 0, 0, 0)


def test_mlc_probe_table2(dram):
    lat, bw = dram.mlc_probe(0, 0)
    assert (lat, bw) == (92.0, pytest.approx(3.70))
    lat, bw = dram.mlc_probe(0, 1)
    assert (lat, bw) == (162.0, pytest.approx(2.27))


def test_negative_sizes_rejected(dram):
    with pytest.raises(ValueError):
        dram.write_ns(-1, AccessPattern.SEQUENTIAL)
    with pytest.raises(ValueError):
        dram.writev_ns([])
    with pytest.raises(ValueError):
        dram.memcpy_ns(-4)
