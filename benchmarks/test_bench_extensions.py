"""Benchmarks for the beyond-the-paper extension experiments."""

import pytest


def test_ext1_read_mix(campaign):
    fig, = campaign("ext1")
    numa = fig.get("+Numa-OPT").values
    reorder = fig.get("+Reorder-OPT (theta=16)").values
    gains = [b / a for a, b in zip(numa, reorder)]
    # The consolidation advantage narrows monotonically as the mix gets
    # read-heavy, but never inverts.
    assert gains[0] > 2.0
    assert gains == sorted(gains, reverse=True)
    assert all(g >= 0.95 for g in gains)
    # Throughput itself falls with read share (READ > WRITE latency).
    assert numa == sorted(numa, reverse=True)


def test_ext3_stragglers(campaign):
    fig, = campaign("ext3")
    base = fig.get("baseline (stuck behind straggler)").values
    mitigated = fig.get("rerouted to healthy port").values
    # The baseline stretches with the slow port; rerouting stays flatter.
    assert base[-1] > 3.0
    assert mitigated[-1] < 0.7 * base[-1]
    assert base == sorted(base)


def test_ext4_one_vs_two_sided(campaign):
    fig, = campaign("ext4")
    one = fig.get("one-sided (NUMA-matched)").values
    rpc1 = fig.get("RPC, 1 server thread").values
    rpc4 = fig.get("RPC, 4 server threads").values
    assert one[-1] > 4 * rpc1[-1]      # the Section I premise, strongly
    assert one[-1] > 1.5 * rpc4[-1]    # even vs 4 burned cores
    # RPC-1 pinned at the service rate.
    assert max(rpc1) < 1.5


def test_ext5_replication(campaign):
    fig, = campaign("ext5")
    sync = fig.get("incremental sync (ms)").values
    # Sync cost grows with the dirty fraction, roughly proportionally.
    assert sync == sorted(sync)
    assert sync[-1] > 20 * sync[0]
    recovery = fig.series[1].values
    # Recovery runs near wire speed (5 B/ns raw) at large chunks.
    assert recovery[-1] > 3.5


def test_ext6_multitenant(campaign):
    fig, = campaign("ext6_multitenant")
    inflation = fig.get("victim p99 inflation (x)").values
    fifo_x, wfq_x = inflation
    # WFQ bounds the victim's tail under a 10x noisy neighbour; FIFO lets
    # the backlog multiply it.
    assert wfq_x < 2.0
    assert fifo_x > 2.0 * wfq_x
    # Admission-control check carries non-zero explicit rejects.
    adm = [c for c in fig.checks if c[0].startswith("(c)")][0]
    assert "rejected" in adm[1] and " 0 rejected" not in adm[1]


def test_ext2_port_scaling(campaign):
    fig, = campaign("ext2")
    writes = fig.get("inbound 64 B writes").values
    atomics = fig.get("same-word FAA").values
    # Near-linear write scaling with port count...
    assert writes[-1] / writes[0] == pytest.approx(4.0, rel=0.2)
    # ...while same-word atomics stay pinned at the word-lock rate.
    assert atomics[-1] / atomics[0] < 1.2


def test_ext7_fault_recovery(campaign):
    import re

    fig, = campaign("ext7_fault_recovery")
    p99 = fig.get("p99 write latency (us)").values
    retrans = fig.get("transport retransmissions").values
    # p99 inflates monotonically with the drop rate; the zero-loss run
    # performs no retransmissions at all (sunny path untouched).
    assert p99 == sorted(p99)
    assert p99[-1] > 10 * p99[0]
    assert retrans[0] == 0 and retrans[-1] > 0
    # Goodput recovers to the pre-fault rate after the blackhole window.
    hole = [c for c in fig.checks if c[0].startswith("(a) goodput")][0]
    m = re.search(r"pre (\d+) -> hole min (\d+) -> post (\d+)", hole[1])
    pre, hole_min, post = (float(g) for g in m.groups())
    assert hole_min == 0
    assert post >= 0.9 * pre
    # Retry exhaustion is loud: the head WR reports RETRY_EXC_ERR and the
    # queue behind it flushes -- never a silent success.
    exh = [c for c in fig.checks if c[0].startswith("(c)")][0]
    assert "retry_exceeded" in exh[1] and "wr_flushed" in exh[1]
    assert "recovered=True" in exh[1]
