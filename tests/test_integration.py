"""Cross-module integration tests: the layers working together."""

import pytest

from repro import build
from repro.apps.dlog import DistributedLog, LogConfig, TransactionEngine
from repro.apps.join import DistributedJoin, JoinConfig
from repro.apps.shuffle import DistributedShuffle, ShuffleConfig
from repro.core import Advisor, IoConsolidator, WorkloadProfile
from repro.core.rpc import RpcServer
from repro.verbs import Opcode, OpTracer, Sge, Worker, WorkRequest
from repro.workloads.tables import generate_relation


def test_shuffle_doorbell_strategy_delivers():
    """The Doorbell batcher plugs into the shuffle like the others."""
    sim, cluster, ctx = build(machines=4)
    shuffle = DistributedShuffle(
        ctx, 4, ShuffleConfig(strategy="doorbell", batch_size=4,
                              move_data=True),
        entries_per_executor=200, seed=5)
    result = shuffle.run()
    assert result.entries == 800
    # Doorbell does NOT reduce the RDMA op count (one WQE per entry).
    src = shuffle.executors[0]
    dests = src.stream.destinations(4)
    expect = [(int(src.stream.keys[e]), int(src.stream.values[e]) & (2**62 - 1))
              for e in range(200) if dests[e] == 2]
    assert shuffle.delivered_entries(2, 0) == expect


def test_dlog_sp_strategy_appends_correctly():
    sim, cluster, ctx = build(machines=4)
    cfg = LogConfig(batch=8, numa=True, strategy="sp", record_bytes=128)
    log = DistributedLog(ctx, 0, cfg)
    eng = TransactionEngine(log, 0, 1, 0)

    def client():
        for _ in range(4):
            yield from eng.append_batch()

    sim.run(until=sim.process(client()))
    records = log.scan(eng.sublog)
    assert [s for _, s in records] == list(range(32))
    assert all(e == 0 for e, _ in records)


def test_join_with_custom_relations_and_tracer():
    """The tracer watches a full application: the join's partition phase
    produces the expected opcode mix."""
    sim, cluster, ctx = build(machines=8)
    tracer = OpTracer(keep_records=False)
    ctx.attach_tracer(tracer)
    inner = generate_relation(1024, key_space=256, seed=7)
    outer = generate_relation(1024, key_space=256, seed=8)
    join = DistributedJoin(ctx, JoinConfig(executors=4, batch=8),
                           inner=inner, outer=outer)
    result = join.run()
    assert result.matches == join.reference_matches()
    assert tracer.ops("write") > 0          # SGL partition traffic
    assert tracer.ops("fetch_and_add") > 0  # stage-sync FAAs
    assert tracer.mean_latency_ns("write") > 1000


def test_consolidator_with_signal_window_semantics():
    """Consolidation and selective signaling compose on one QP: absorbed
    writes flush as blocks, a window of unsignaled WRITEs posted behind
    them ends in one signaled WR, and all bytes land."""
    sim, cluster, ctx = build(machines=2)
    staging = ctx.register(0, 8192)
    remote = ctx.register(1, 8192)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    cons = IoConsolidator(w, qp, staging, remote, block_bytes=1024, theta=4)
    for i in range(4):
        staging.write(4096 + i * 32, bytes([0x80 + i]) * 32)

    def client():
        for i in range(16):
            yield from cons.write((i % 4) * 1024 + (i // 4) * 32,
                                  bytes([i + 1]) * 32)
        yield from cons.flush_all()
        for i in range(4):
            done = yield from w.post(qp, WorkRequest(
                Opcode.WRITE, wr_id=i, sgl=[Sge(staging, 4096 + i * 32, 32)],
                remote_mr=remote, remote_offset=4096 + i * 32,
                signaled=i == 3))
        yield from w.wait(done)

    sim.run(until=sim.process(client()))
    assert cons.flushes == 4
    assert qp.cq.produced == cons.flushes + 1   # the window made one CQE
    for i in range(16):
        off = (i % 4) * 1024 + (i // 4) * 32
        assert remote.read(off, 32) == bytes([i + 1]) * 32
    for i in range(4):
        assert remote.read(4096 + i * 32, 32) == bytes([0x80 + i]) * 32


def test_advisor_recommendations_hold_in_simulation():
    """End-to-end: the advisor's consolidation recommendation for a
    skewed workload is validated by the hashtable's measured gain."""
    from repro.apps.hashtable import DisaggregatedHashTable, FrontEndConfig
    from repro.core.locks import BackoffPolicy
    profile = WorkloadProfile(payload_bytes=64, hot_fraction=0.75,
                              mergeable_per_block=16,
                              staleness_tolerant=True)
    recs = Advisor().advise(profile)
    cons = [r for r in recs if r.technique == "IO consolidation"][0]
    assert cons.predicted_speedup > 2

    def measured(config):
        sim, cluster, ctx = build(machines=8)
        table = DisaggregatedHashTable(ctx, 8, config, n_keys=4096,
                                       hot_fraction=0.125)
        return table.run_throughput(measure_ns=300_000,
                                    warmup_ns=80_000).mops

    base = measured(FrontEndConfig(numa="matched"))
    opt = measured(FrontEndConfig(numa="matched", theta=16,
                                  backoff=BackoffPolicy(base_ns=1500),
                                  merge_flush=False))
    assert opt / base > 0.5 * cons.predicted_speedup


def test_rpc_server_custom_service_time():
    sim, cluster, ctx = build(machines=2)
    fast = RpcServer(ctx, 0, service_ns=50.0)
    fast.start(lambda b, r: b)
    w = Worker(ctx, 1)
    ch = fast.connect(1)
    t = {}

    def client():
        t0 = sim.now
        for _ in range(10):
            yield from ch.call(w, "x")
        t["fast"] = sim.now - t0

    sim.run(until=sim.process(client()))
    fast.stop()
    assert fast.requests_served == 10
    # 10 calls well under 10 x (default 700ns service + RTT ~3 us).
    assert t["fast"] < 10 * 4500


def test_two_applications_share_one_cluster():
    """A shuffle and a distributed log coexist on one simulated cluster,
    contending for the same NICs."""
    sim, cluster, ctx = build(machines=8)
    shuffle = DistributedShuffle(
        ctx, 4, ShuffleConfig(strategy="sgl", batch_size=8,
                              move_data=False),
        entries_per_executor=300, seed=9)
    log = DistributedLog(ctx, 0, LogConfig(batch=8, numa=True,
                                           move_data=False))
    engines = [TransactionEngine(log, i, 1 + i, i % 2) for i in range(3)]
    done = []

    def log_client(eng):
        for _ in range(10):
            yield from eng.append_batch()
        done.append("log")

    procs = [sim.process(log_client(e)) for e in engines]
    result = shuffle.run()
    for p in procs:
        sim.run(until=p)
    assert result.entries == 1200
    assert done == ["log"] * 3
    assert sum(e.appended for e in engines) == 240
