"""Tests for the multi-tenant service plane: connection pooling + SRAM
pressure, WFQ/token-bucket QoS, admission control, and SLO metrics."""

import pytest

from repro import build
from repro.hw.params import DEFAULT, ServiceConfig, TenantSpec
from repro.sim import Simulator
from repro.sim.stats import percentile, percentiles
from repro.tenancy import (
    REJECT_DEADLINE,
    REJECT_INFLIGHT,
    REJECT_QUEUE,
    QoSScheduler,
    ServicePlane,
)
from repro.tenancy.metrics import SLOMetrics
from repro.verbs import CompletionStatus, Opcode, QPState, Sge, Worker, WorkRequest


def make_plane(machines=3, params=None, **cfg):
    cfg.setdefault("tenants", (TenantSpec("a"), TenantSpec("b")))
    sim, cluster, ctx = build(machines=machines, params=params)
    plane = ServicePlane(ctx, ServiceConfig(**cfg))
    return sim, cluster, ctx, plane


def write_wr(lmr, rmr, length=64, wr_id=0):
    return WorkRequest(Opcode.WRITE, wr_id=wr_id,
                       sgl=[Sge(lmr, 0, length)], remote_mr=rmr,
                       remote_offset=0, move_data=False)


# ---------------------------------------------------------------- config

def test_tenant_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec("", weight=1.0).validate()
    with pytest.raises(ValueError):
        TenantSpec("t", weight=0).validate()
    with pytest.raises(ValueError):
        TenantSpec("t", rate_mops=-1).validate()
    with pytest.raises(ValueError):
        TenantSpec("t", max_inflight=0).validate()
    with pytest.raises(ValueError):
        TenantSpec("t", deadline_ns=0).validate()
    TenantSpec("t", weight=2.5, rate_mops=1.0, deadline_ns=1e4).validate()


def test_tenant_spec_validates_at_construction():
    # Regression: TenantSpec(rate_mops=0.0) used to construct fine and
    # only blow up much later as a ZeroDivisionError inside
    # _TokenBucket.eligible_at; __post_init__ now front-loads validate().
    with pytest.raises(ValueError):
        TenantSpec("t", rate_mops=0.0)
    with pytest.raises(ValueError):
        TenantSpec("")
    with pytest.raises(ValueError):
        TenantSpec("t", max_queue_depth=0)
    TenantSpec("t", rate_mops=0.5)                # valid spec constructs


def test_service_config_validation():
    with pytest.raises(ValueError):
        ServiceConfig(tenants=()).validate()
    with pytest.raises(ValueError):
        ServiceConfig(tenants=(TenantSpec("a"), TenantSpec("a"))).validate()
    with pytest.raises(ValueError):
        ServiceConfig(tenants=(TenantSpec("a"),), policy="srpt").validate()
    cfg = ServiceConfig(tenants=(TenantSpec("a"),))
    cfg.validate()
    assert cfg.tenant("a").name == "a"
    with pytest.raises(KeyError):
        cfg.tenant("nope")


def test_plane_attach_detach_exclusive():
    sim, cluster, ctx, plane = make_plane()
    with pytest.raises(RuntimeError):
        ServicePlane(ctx, ServiceConfig(tenants=(TenantSpec("x"),)))
    plane.detach()
    ServicePlane(ctx, ServiceConfig(tenants=(TenantSpec("x"),)))


# ------------------------------------------------------- connection manager

def test_pool_reuse_cap_and_lru_eviction():
    sim, cluster, ctx, plane = make_plane(
        machines=5, qp_cap_per_tenant=2,
        tenants=(TenantSpec("a"), TenantSpec("b")))
    cm = plane.connections
    q1 = cm.lease("a", 0, 1)
    cm.release(q1)
    assert cm.lease("a", 0, 1) is q1          # pooled reuse
    cm.release(q1)
    assert cm.created["a"] == 1 and cm.reused["a"] == 1

    q2 = cm.lease("a", 0, 2)                  # at cap now
    cm.release(q2)
    q3 = cm.lease("a", 0, 3)                  # evicts LRU idle (q1)
    assert cm.evicted["a"] == 1
    assert cm.live_qps("a") == 2
    assert q1.destroyed and not q2.destroyed and not q3.destroyed
    # Caps are per tenant: b's pool is unaffected by a's.
    qb = cm.lease("b", 0, 1)
    assert cm.live_qps("a") == 2 and cm.live_qps("b") == 1
    assert qb is not q1


def test_pool_never_evicts_leased_qps():
    sim, cluster, ctx, plane = make_plane(
        machines=4, qp_cap_per_tenant=2,
        tenants=(TenantSpec("a"),))
    cm = plane.connections
    cm.lease("a", 0, 1)
    cm.lease("a", 0, 2)
    with pytest.raises(RuntimeError, match="cap"):
        cm.lease("a", 0, 3)


def test_pool_lease_release_errors():
    sim, cluster, ctx, plane = make_plane(machines=3)
    cm = plane.connections
    with pytest.raises(KeyError):
        cm.lease("ghost", 0, 1)
    foreign = ctx.create_qp(0, 1)
    with pytest.raises(KeyError):
        cm.release(foreign)
    qp = cm.lease("a", 0, 1)
    cm.release(qp)
    with pytest.raises(RuntimeError):
        cm.release(qp)


def test_pool_replaces_qp_destroyed_behind_its_back():
    sim, cluster, ctx, plane = make_plane(machines=3)
    cm = plane.connections
    qp = cm.lease("a", 0, 1)
    cm.release(qp)
    ctx.destroy_qp(qp)            # rogue: not via the pool
    fresh = cm.lease("a", 0, 1)
    assert fresh is not qp and not fresh.destroyed
    assert cm.live_qps("a") == 1
    assert cm.created["a"] == 2 and cm.reused["a"] == 0


def test_live_qps_ignores_qps_destroyed_behind_the_pools_back():
    # Regression: the pool used to keep counting destroyed QPs toward the
    # cap, so phantom connections could evict a healthy pooled QP.
    sim, cluster, ctx, plane = make_plane(
        machines=5, qp_cap_per_tenant=2, tenants=(TenantSpec("a"),))
    cm = plane.connections
    q1 = cm.lease("a", 0, 1)
    cm.release(q1)
    q2 = cm.lease("a", 0, 2)
    cm.release(q2)
    ctx.destroy_qp(q1)            # rogue: not via the pool
    assert cm.live_qps("a") == 1
    # Apparently at the cap — but the destroyed entry freed a slot, so
    # leasing a third remote must neither evict q2 nor tally an eviction.
    q3 = cm.lease("a", 0, 3)
    assert not q2.destroyed and not q3.destroyed
    assert cm.evicted["a"] == 0
    assert cm.live_qps("a") == 2
    cm.release(q3)


def test_destroyed_leased_qp_does_not_wedge_the_cap():
    # Regression: with every pooled QP leased and one of them destroyed
    # behind the pool's back, a new lease raised "cap reached and every
    # pooled QP is leased" — the dead connection held a phantom slot.
    sim, cluster, ctx, plane = make_plane(
        machines=5, qp_cap_per_tenant=2, tenants=(TenantSpec("a"),))
    cm = plane.connections
    ctx.destroy_qp(cm.lease("a", 0, 1))
    q2 = cm.lease("a", 0, 2)
    q3 = cm.lease("a", 0, 3)      # no spurious RuntimeError
    assert not q3.destroyed and cm.live_qps("a") == 2
    cm.release(q2)
    cm.release(q3)


def test_evict_idle_by_age():
    sim, cluster, ctx, plane = make_plane(
        machines=5, qp_cap_per_tenant=8, tenants=(TenantSpec("a"),))
    cm = plane.connections
    for remote in (1, 2, 3):
        cm.release(cm.lease("a", 0, remote))
    assert cm.evict_idle(older_than_ns=1.0) == 0   # nothing old enough yet
    assert cm.evict_idle() == 3
    assert cm.live_qps("a") == 0


def test_evict_idle_exact_age_boundary():
    # The age filter is inclusive: a QP idle for exactly older_than_ns
    # is evictable (now - last_used >= bound, not >).
    sim, cluster, ctx, plane = make_plane(
        machines=3, qp_cap_per_tenant=8, tenants=(TenantSpec("a"),))
    cm = plane.connections
    cm.release(cm.lease("a", 0, 1))                # last_used = 0
    sim.run(until=sim.timeout(100.0))
    assert cm.evict_idle(older_than_ns=100.5) == 0  # just under the age
    assert cm.evict_idle(older_than_ns=100.0) == 1  # exactly at the age
    assert cm.live_qps("a") == 0


# ------------------------------------------------- SRAM pressure (III-D)

def test_qp_overflow_shrinks_translation_cache_and_destroy_restores():
    params = DEFAULT.derive(qp_cache_entries=4, qp_translation_footprint=64,
                            translation_cache_min_entries=64)
    sim, cluster, ctx = build(machines=2, params=params)
    rnic = cluster[0].rnic
    full = params.translation_cache_entries
    qps = [ctx.create_qp(0, 1) for _ in range(6)]   # overflow by 2
    assert rnic.live_qps == 6
    assert rnic.translation_cache.capacity == full - 2 * 64
    # Pressure clamps at the floor, never below.
    more = [ctx.create_qp(0, 1) for _ in range(40)]
    assert rnic.translation_cache.capacity == 64
    for qp in more + qps[:2]:
        ctx.destroy_qp(qp)
    assert rnic.live_qps == 4
    assert rnic.translation_cache.capacity == full   # pressure released


def test_destroy_qp_semantics():
    sim, cluster, ctx = build(machines=2)
    qp = ctx.create_qp(0, 1)
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 4096)
    ctx.destroy_qp(qp)
    ctx.destroy_qp(qp)          # idempotent
    assert qp.destroyed and qp not in ctx.qps
    with pytest.raises(RuntimeError, match="destroyed"):
        qp.post_send(write_wr(lmr, rmr))

    qp2 = ctx.create_qp(0, 1)
    qp2.post_send(write_wr(lmr, rmr))
    with pytest.raises(RuntimeError, match="outstanding"):
        ctx.destroy_qp(qp2)     # mid-flight teardown is refused
    sim.run()
    ctx.destroy_qp(qp2)


# ------------------------------------------------------------ QoS scheduler

def saturate(sim, plane, ctx, tenant, machine, streams, stop):
    srv = ctx.register(0, 1 << 15, socket=0)
    procs = []
    for i in range(streams):
        lmr = ctx.register(machine, 4096, socket=i % 2)

        def stream(lmr=lmr, i=i):
            sess = plane.session(tenant, machine=machine, socket=i % 2)
            while not stop[0]:
                yield from sess.write(0, src=lmr[0:64], dst=srv[0:64], move_data=False)

        procs.append(sim.process(stream()))
    return procs


def test_wfq_weighted_share():
    sim, cluster, ctx, plane = make_plane(
        machines=3, scheduler_slots=1,
        tenants=(TenantSpec("gold", weight=2.0), TenantSpec("lead")))
    stop = [False]
    saturate(sim, plane, ctx, "gold", 1, 4, stop)
    saturate(sim, plane, ctx, "lead", 2, 4, stop)
    sim.run(until=300_000.0)
    gold, lead = plane.metrics["gold"].ops, plane.metrics["lead"].ops
    assert gold + lead > 100
    assert gold / lead == pytest.approx(2.0, rel=0.15)


def test_fifo_has_no_weighted_share():
    sim, cluster, ctx, plane = make_plane(
        machines=3, scheduler_slots=1, policy="fifo",
        tenants=(TenantSpec("gold", weight=2.0), TenantSpec("lead")))
    stop = [False]
    saturate(sim, plane, ctx, "gold", 1, 4, stop)
    saturate(sim, plane, ctx, "lead", 2, 4, stop)
    sim.run(until=300_000.0)
    gold, lead = plane.metrics["gold"].ops, plane.metrics["lead"].ops
    # Arrival order ignores weights: equal closed-loop demand, equal share.
    assert gold / lead == pytest.approx(1.0, rel=0.15)


def test_token_bucket_caps_rate():
    # 0.5 Mops/s == one op per 2000 ns.
    sim, cluster, ctx, plane = make_plane(
        machines=3,
        tenants=(TenantSpec("slow", rate_mops=0.5, burst_ops=1),))
    srv = ctx.register(0, 4096)
    lmr = ctx.register(1, 4096)
    n = 12

    def client():
        sess = plane.session("slow", machine=1)
        for _ in range(n):
            yield from sess.write(0, src=lmr[0:64], dst=srv[0:64], move_data=False)

    sim.run(until=sim.process(client()))
    # n ops at 1/2000ns: even with the first op free, the span is at least
    # (n-1) refill periods.
    assert sim.now >= (n - 1) * 2000.0
    assert plane.metrics["slow"].ops == n


def test_wfq_isolation_beats_fifo():
    results = {}
    for policy in ("fifo", "wfq"):
        sim, cluster, ctx, plane = make_plane(
            machines=3, scheduler_slots=2, policy=policy,
            tenants=(TenantSpec("victim"), TenantSpec("noisy")))
        stop = [False]
        srv = ctx.register(0, 1 << 15)
        vm = ctx.register(1, 4096)

        def victim():
            sess = plane.session("victim", machine=1)
            for _ in range(60):
                comp = yield from sess.write(0, src=vm[0:64], dst=srv[0:64],
                                             move_data=False)
                assert comp.ok

        saturate(sim, plane, ctx, "noisy", 2, 12, stop)
        p = sim.process(victim())
        sim.run(until=p)
        stop[0] = True
        results[policy] = plane.metrics["victim"].latency_percentiles()["p99"]
    assert results["wfq"] < 0.6 * results["fifo"]


def test_scheduler_unknown_tenant():
    sim, cluster, ctx, plane = make_plane()
    with pytest.raises(KeyError):
        plane.qos.submit("ghost", 1.0, None, lambda granted: None)


def pending_eligibility_timers(sim, qos):
    """Live heap entries that would wake ``qos``'s eligibility timer."""
    return sum(1 for *_, ev in sim._heap
               if not ev.cancelled and ev.callbacks
               and any(getattr(cb, "__func__", None)
                       is QoSScheduler._eligible for cb in ev.callbacks))


def test_token_bucket_timer_rearms_for_a_sooner_tenant():
    # slow: one token per 10 us; fast: one per 1 us.  slow's second op
    # arms the eligibility timer for 10 us; fast's second op, queued
    # later, must move it to ~1.1 us instead of waiting behind it.
    sim = Simulator()
    qos = QoSScheduler(sim, ServiceConfig(
        tenants=(TenantSpec("slow", rate_mops=0.1, burst_ops=1),
                 TenantSpec("fast", rate_mops=1.0, burst_ops=1)),
        scheduler_slots=8))
    granted = {}

    def submit(tenant, i):
        qos.submit(tenant, 1.0, None,
                   lambda ok: granted.setdefault((tenant, i), sim.now))

    submit("slow", 0)
    submit("slow", 1)
    sim.run(until=100.0)
    assert granted == {("slow", 0): 0.0}
    assert pending_eligibility_timers(sim, qos) == 1
    submit("fast", 0)
    submit("fast", 1)
    sim.run(until=200.0)
    assert granted[("fast", 0)] == 100.0
    assert pending_eligibility_timers(sim, qos) == 1   # re-armed, not added
    sim.run(until=5_000.0)
    assert granted[("fast", 1)] == pytest.approx(1_100.0)
    assert pending_eligibility_timers(sim, qos) == 1   # slow's, at 10 us
    sim.run()
    assert granted[("slow", 1)] == pytest.approx(10_000.0)
    assert pending_eligibility_timers(sim, qos) == 0


def run_writes(tenanted, n=3):
    """(entries dispatched, from the heap or in place, and
    Simulator.process calls) for ``n`` sequential 64 B WRITEs from one
    Worker, through the plane or around it."""
    sim, cluster, ctx, plane = make_plane(machines=2)
    lmr = ctx.register(1, 4096)
    rmr = ctx.register(0, 4096)
    qp = ctx.create_qp(1, 0)
    if tenanted:
        plane.adopt(qp, "a")
    w = Worker(ctx, 1, 0)
    calls = [0]
    real = Simulator.process

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return real(self, *args, **kwargs)

    def client():
        for _ in range(n):
            comp = yield from w.write(qp, src=lmr[0:64], dst=rmr[0:64],
                                      move_data=False)
            assert comp.ok

    Simulator.process = counting
    try:
        sim.run(until=sim.process(client()))
    finally:
        Simulator.process = real
    return sim.events_processed + sim.events_in_place, calls[0]


def test_plane_event_cost_per_op():
    # A granted op costs one dispatch round over the bare verbs op: its
    # completion reaches the waiter inside the dispatch that decides it
    # (Event.fire), and the plane spawns no process.
    base_events, base_procs = run_writes(tenanted=False)
    events, procs = run_writes(tenanted=True)
    assert events - base_events == 3
    assert procs == base_procs == 1          # the client process only


# --------------------------------------------------------- admission control

def admission_rig(spec, machines=3, **cfg):
    sim, cluster, ctx = build(machines=machines)
    plane = ServicePlane(ctx, ServiceConfig(tenants=(spec,), **cfg))
    lmr = ctx.register(1, 4096)
    rmr = ctx.register(0, 4096)
    qp = plane.connections.lease(spec.name, 1, 0)
    return sim, plane, qp, lmr, rmr


def test_inflight_window_rejects_explicitly():
    sim, plane, qp, lmr, rmr = admission_rig(
        TenantSpec("t", max_inflight=2, max_queue_depth=64))
    events = [plane.submit(qp, write_wr(lmr, rmr, wr_id=i)) for i in range(5)]
    rejected = [e for e in events if e.triggered]
    assert len(rejected) == 3
    for ev in rejected:
        assert ev.value.status is CompletionStatus.REJECTED
        assert not ev.value.ok
    for ev in events:
        sim.run(until=ev)
    slo = plane.metrics["t"]
    assert slo.ops == 2
    assert slo.rejects[REJECT_INFLIGHT] == 3
    assert slo.reject_rate == pytest.approx(0.6)


def test_admission_reject_reaches_the_waiter_without_a_dispatch():
    sim, plane, qp, lmr, rmr = admission_rig(TenantSpec("t", max_inflight=1))
    assert plane.admission.try_admit("t", 0) == (True, "")  # window full
    worker = Worker(plane.ctx, 1, 0)

    def client():
        return (yield from worker.execute(qp, write_wr(lmr, rmr)))

    comp = sim.run(until=sim.process(client()))
    assert comp.status is CompletionStatus.REJECTED
    # the boot, the post and poll sleeps and the process's end: the
    # REJECTED completion itself costs no dispatch
    assert sim.events_processed + sim.events_in_place == 4
    assert plane.metrics["t"].rejects[REJECT_INFLIGHT] == 1


def test_queue_depth_backpressure():
    # Queue depth builds in the scheduler, so arrivals must interleave
    # with simulation time: stagger them 1 ns apart with one service slot.
    sim, plane, qp, lmr, rmr = admission_rig(
        TenantSpec("t", max_inflight=64, max_queue_depth=1),
        scheduler_slots=1)
    events = []

    def submitter(i):
        yield sim.timeout(float(i))
        events.append(plane.submit(qp, write_wr(lmr, rmr, wr_id=i)))

    for i in range(4):
        sim.process(submitter(i))
    sim.run()
    assert len(events) == 4 and all(e.processed for e in events)
    slo = plane.metrics["t"]
    # op0 takes the slot, op1 fills the queue (depth 1 = the bound), and
    # later arrivals bounce off the full queue with an explicit status.
    assert slo.ops == 2
    assert slo.rejects[REJECT_QUEUE] == 2
    assert slo.ops + slo.rejected == 4


def test_deadline_sheds_queued_ops():
    sim, plane, qp, lmr, rmr = admission_rig(
        TenantSpec("t", deadline_ns=50.0), scheduler_slots=1)
    events = [plane.submit(qp, write_wr(lmr, rmr, wr_id=i)) for i in range(4)]
    comps = [sim.run(until=ev) for ev in events]
    shed = [c for c in comps if c.status is CompletionStatus.REJECTED]
    done = [c for c in comps if c.ok]
    # The op holding the slot finishes; queued ops outlive a 50 ns deadline
    # (an op takes ~1 us) and are shed — but explicitly, never dropped.
    assert len(done) >= 1 and len(shed) >= 1
    assert len(done) + len(shed) == 4
    assert plane.metrics["t"].rejects[REJECT_DEADLINE] == len(shed)


def test_batch_admission_is_atomic():
    sim, plane, qp, lmr, rmr = admission_rig(
        TenantSpec("t", max_inflight=3, max_queue_depth=64))
    wrs = [write_wr(lmr, rmr, wr_id=i) for i in range(4)]
    events = plane.submit_batch(qp, wrs)      # 4 > window of 3: all-or-none
    assert all(e.value.status is CompletionStatus.REJECTED for e in events)
    events = plane.submit_batch(qp, wrs[:2])
    for ev in events:
        comp = sim.run(until=ev)
        assert comp.ok
    assert plane.metrics["t"].ops == 2


def test_deadline_shed_batch_releases_every_slot():
    # The batch shed branch must reject all n WRs with the deadline
    # reason and release all n admission slots at once; a partial
    # release would leak window slots and surface as inflight rejects
    # in later rounds.  max_inflight=5 leaves zero headroom: blocker (1)
    # + batch (4) fill the window exactly, so any leak trips it.
    sim, plane, qp, lmr, rmr = admission_rig(
        TenantSpec("t", max_inflight=5, deadline_ns=50.0),
        scheduler_slots=1)
    for round_ in range(3):
        blocker = plane.submit(qp, write_wr(lmr, rmr, wr_id=100 + round_))
        wrs = [write_wr(lmr, rmr, wr_id=round_ * 4 + i) for i in range(4)]
        events = plane.submit_batch(qp, wrs)      # queued behind the blocker
        for ev in events:
            comp = sim.run(until=ev)
            assert comp.status is CompletionStatus.REJECTED
        assert sim.run(until=blocker).ok
        sim.run()
    slo = plane.metrics["t"]
    assert slo.rejects == {REJECT_DEADLINE: 12}   # never inflight_window
    assert slo.ops == 3                           # the blockers
    assert plane.admission.inflight["t"] == 0     # no slot leaked


@pytest.mark.parametrize("batch", [False, True], ids=["single", "doorbell"])
def test_op_granted_onto_a_reset_qp_flushes_and_frees_its_slot(batch):
    # A pooled QP sits in RESET while it reconnects.  An op granted onto
    # it must flush (posting would be a verbs usage error) and return its
    # slot from inside the dispatch round, so the op queued behind it on
    # the one scheduler slot is still granted.
    sim, plane, qp, lmr, rmr = admission_rig(TenantSpec("t"),
                                             scheduler_slots=1)
    qp._enter_error()
    qp.reset()
    healthy = plane.ctx.create_qp(1, 0)
    plane.adopt(healthy, "t")
    if batch:
        flushed = plane.submit_batch(
            qp, [write_wr(lmr, rmr, wr_id=i) for i in range(2)])
    else:
        flushed = [plane.submit(qp, write_wr(lmr, rmr))]
    behind = plane.submit(healthy, write_wr(lmr, rmr, wr_id=9))
    assert sim.run(until=behind).ok
    assert all(ev.value.status is CompletionStatus.WR_FLUSH_ERR
               for ev in flushed)
    assert qp.state is QPState.RESET and qp.posted == 0
    assert plane.admission.inflight["t"] == 0
    assert plane.qos.in_service == 0


# ----------------------------------------------------------------- metrics

def test_percentile_helpers():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == pytest.approx(50.5)
    assert percentile(xs, 100) == 100
    assert percentile(xs, 0) == 1
    assert percentiles([], [50, 99]) == [0.0, 0.0]
    assert percentiles([10.0], [50]) == [10.0]
    assert percentile([1.0, 2.0], 75) == pytest.approx(1.75)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_slo_metrics_accumulation():
    sim, cluster, ctx = build(machines=2)
    m = SLOMetrics(sim, ["t"])
    for lat in [100.0] * 98 + [1000.0, 2000.0]:
        m.record_op("t", lat, 64, "write")
    m.record_reject("t", "queue_depth")
    slo = m["t"]
    assert slo.ops == 100 and slo.bytes == 6400
    pct = slo.latency_percentiles()
    assert pct["p50"] == pytest.approx(100.0)
    assert pct["p99"] > 900.0
    assert slo.reject_rate == pytest.approx(1 / 101)
    snap = m.snapshot()["t"]
    assert snap["rejects_by_reason"] == {"queue_depth": 1}
    report = m.report()
    assert "tenant" in report and "t" in report


def test_metrics_goodput_spans_active_window():
    sim, cluster, ctx, plane = make_plane()
    srv = ctx.register(0, 1 << 15)
    lmr = ctx.register(1, 4096)

    def client():
        sess = plane.session("a", machine=1)
        for _ in range(20):
            yield from sess.write(0, src=lmr[0:512], dst=srv[0:512], move_data=False)

    sim.run(until=sim.process(client()))
    slo = plane.metrics["a"]
    assert slo.goodput_gbps > 0
    assert slo.goodput_gbps == pytest.approx(
        slo.bytes / (slo.last_ns - slo.first_ns))


# ----------------------------------------------------------- worker bypass

def test_untenanted_qps_bypass_the_plane():
    sim, cluster, ctx, plane = make_plane()
    lmr = ctx.register(1, 4096)
    rmr = ctx.register(0, 4096)
    qp = ctx.create_qp(1, 0)              # not leased, not adopted
    w = Worker(ctx, 1, 0)

    def client():
        return (yield from w.write(qp, src=lmr[0:64], dst=rmr[0:64]))

    comp = sim.run(until=sim.process(client()))
    assert comp.ok
    assert plane.metrics["a"].ops == 0    # plane never saw it
    assert plane.qos.grants == {"a": 0, "b": 0}


def test_adopted_qp_is_mediated():
    sim, cluster, ctx, plane = make_plane()
    lmr = ctx.register(1, 4096)
    rmr = ctx.register(0, 4096)
    qp = ctx.create_qp(1, 0)
    plane.adopt(qp, "b")
    assert qp.trace_tags == {"tenant": "b"}
    w = Worker(ctx, 1, 0)

    def client():
        return (yield from w.write(qp, src=lmr[0:64], dst=rmr[0:64]))

    comp = sim.run(until=sim.process(client()))
    assert comp.ok
    assert plane.metrics["b"].ops == 1
    assert plane.qos.grants["b"] == 1
    with pytest.raises(KeyError):
        plane.adopt(qp, "ghost")
