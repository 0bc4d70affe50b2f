"""Extension 6 — multi-tenant isolation on the service plane.

The ROADMAP north star is a system serving many users off shared RNICs;
the paper's Section III-D warns that naive per-client connections explode
on-NIC state.  This experiment exercises :mod:`repro.tenancy` on all
three fronts:

(a) **connection bounding** — a tenant fanning out to more remote
    machines than its QP cap stays at the cap via LRU eviction and
    reuses pooled connections, and a QP explosion past the QP-cache
    capacity measurably shrinks the RNIC's translation SRAM;
(b) **QoS isolation** — a 10x-overdriven noisy neighbour inflates a
    victim tenant's p99 by <2x under WFQ, while plain FIFO lets the
    noisy backlog multiply the victim's tail;
(c) **admission control** — an open burst beyond the queue bound and
    deadline completes every op either successfully or with an explicit
    ``REJECTED`` status (non-zero reject metrics, no hangs, no drops).

Everything is closed-loop and deterministic under the root seed.
"""

from __future__ import annotations

from repro import build
from repro.bench.report import FigureResult
from repro.hw.params import ServiceConfig, TenantSpec
from repro.tenancy import ServicePlane
from repro.verbs import CompletionStatus

__all__ = ["points", "run_point", "assemble"]

#: Noisy neighbour overdrive: streams per noisy tenant vs per victim.
VICTIM_STREAMS = 2
NOISY_STREAMS = 20
WRITE_BYTES = 64


def _isolation_rig(policy: str):
    sim, cluster, ctx = build(machines=3)
    plane = ServicePlane(ctx, ServiceConfig(
        tenants=(TenantSpec("victim"), TenantSpec("noisy")),
        policy=policy, scheduler_slots=4))
    server_victim = ctx.register(0, 1 << 16, socket=0)
    server_noisy = ctx.register(0, 1 << 16, socket=1)
    return sim, ctx, plane, server_victim, server_noisy


def _run_isolation(policy: str, noisy_streams: int, victim_ops: int) -> dict:
    """Victim latency stats with ``noisy_streams`` competing streams."""
    sim, ctx, plane, srv_v, srv_n = _isolation_rig(policy)
    stop = [False]

    def victim_stream(i: int):
        sess = plane.session("victim", machine=1, socket=i % 2)
        lmr = ctx.register(1, 4096, socket=i % 2)
        for k in range(victim_ops):
            off = (64 * k) % 4096
            comp = yield from sess.write(
                0, src=lmr[0:WRITE_BYTES],
                dst=srv_v[off:off + WRITE_BYTES], move_data=False)
            assert comp.ok
    def noisy_stream(i: int):
        sess = plane.session("noisy", machine=2, socket=i % 2)
        lmr = ctx.register(2, 4096, socket=i % 2)
        while not stop[0]:
            off = (64 * i) % 4096
            yield from sess.write(
                0, src=lmr[0:WRITE_BYTES],
                dst=srv_n[off:off + WRITE_BYTES], move_data=False)

    victims = [sim.process(victim_stream(i)) for i in range(VICTIM_STREAMS)]
    noisies = [sim.process(noisy_stream(i)) for i in range(noisy_streams)]
    for p in victims:
        sim.run(until=p)
    stop[0] = True
    for p in noisies:
        sim.run(until=p)
    pct = plane.metrics["victim"].latency_percentiles()
    return {
        "p50_us": pct["p50"] / 1000.0,
        "p99_us": pct["p99"] / 1000.0,
        "victim_ops": plane.metrics["victim"].ops,
        "noisy_ops": plane.metrics["noisy"].ops,
    }


def _run_pooling() -> dict:
    """(a) QP cap + LRU eviction + reuse, and SRAM pressure from overflow."""
    sim, cluster, ctx = build(machines=5)
    plane = ServicePlane(ctx, ServiceConfig(
        tenants=(TenantSpec("pool"),), qp_cap_per_tenant=2))
    cm = plane.connections
    max_live = 0
    # Fan out to 4 remotes with a cap of 2, twice: the second sweep
    # re-creates what the first evicted; re-leasing the newest remote hits
    # the pool.
    for _ in range(2):
        for remote in (1, 2, 3, 4):
            qp = cm.lease("pool", 0, remote)
            max_live = max(max_live, cm.live_qps("pool"))
            cm.release(qp)
    cm.lease("pool", 0, 4)           # still pooled -> reuse, no create
    max_live = max(max_live, cm.live_qps("pool"))

    # QP explosion vs translation SRAM: overflowing the QP cache displaces
    # translation entries down to the floor.
    params = ctx.params.derive(qp_cache_entries=4, qp_translation_footprint=64,
                               translation_cache_min_entries=64)
    sim2, cluster2, ctx2 = build(machines=3, params=params)
    rnic = cluster2[0].rnic
    cap_before = rnic.translation_cache.capacity
    for _ in range(20):
        ctx2.create_qp(0, 1)
    cap_after = rnic.translation_cache.capacity
    return {
        "max_live": max_live, "created": cm.created["pool"],
        "reused": cm.reused["pool"], "evicted": cm.evicted["pool"],
        "xlt_cap_before": cap_before, "xlt_cap_after": cap_after,
    }


def _run_admission(burst_streams: int, ops_per_stream: int) -> dict:
    """(c) Queue-depth backpressure + deadline shedding under a burst."""
    sim, cluster, ctx = build(machines=3)
    plane = ServicePlane(ctx, ServiceConfig(
        tenants=(TenantSpec("burst", max_inflight=64, max_queue_depth=12,
                            deadline_ns=30_000.0),),
        scheduler_slots=4))
    srv = ctx.register(0, 1 << 16)
    outcomes = {"ok": 0, "rejected": 0}

    def stream(i: int):
        sess = plane.session("burst", machine=1 + i % 2, socket=i % 2)
        lmr = ctx.register(1 + i % 2, 4096, socket=i % 2)
        for k in range(ops_per_stream):
            off = (64 * i) % 4096
            comp = yield from sess.write(
                0, src=lmr[0:WRITE_BYTES],
                dst=srv[off:off + WRITE_BYTES], move_data=False)
            if comp.status is CompletionStatus.REJECTED:
                outcomes["rejected"] += 1
            else:
                outcomes["ok"] += 1

    procs = [sim.process(stream(i)) for i in range(burst_streams)]
    for p in procs:
        sim.run(until=p)
    slo = plane.metrics["burst"]
    return {
        "posted": burst_streams * ops_per_stream,
        "ok": outcomes["ok"], "rejected": outcomes["rejected"],
        "metric_rejects": slo.rejected,
        "by_reason": dict(slo.rejects),
    }


def points(quick: bool = True) -> list:
    pts = [{"probe": "pooling"}, {"probe": "admission"}]
    pts.extend({"probe": "isolation", "policy": p, "noisy": n}
               for n in (0, NOISY_STREAMS) for p in ("fifo", "wfq"))
    return pts


def run_point(point: dict, quick: bool = True) -> dict:
    probe = point["probe"]
    if probe == "pooling":
        return _run_pooling()
    if probe == "admission":
        return _run_admission(burst_streams=24 if quick else 48,
                              ops_per_stream=4 if quick else 8)
    victim_ops = 120 if quick else 400
    return _run_isolation(point["policy"], point["noisy"], victim_ops)


def assemble(values: list, quick: bool = True) -> FigureResult:
    pool, adm = values[0], values[1]
    iso = {"fifo": values[2], "wfq": values[3]}
    loaded = {"fifo": values[4], "wfq": values[5]}
    inflation = {p: loaded[p]["p99_us"] / iso[p]["p99_us"]
                 for p in ("fifo", "wfq")}

    fig = FigureResult(
        name="Ext 6",
        title="Multi-tenant service plane: WFQ isolation vs FIFO under a "
              f"{NOISY_STREAMS // VICTIM_STREAMS}x noisy neighbour "
              "— extension",
        x_label="scheduling policy",
        x_values=["fifo", "wfq"],
        y_label="victim latency (us) / inflation (x)")
    fig.add("victim p99 isolated (us)",
            [iso["fifo"]["p99_us"], iso["wfq"]["p99_us"]])
    fig.add("victim p99 with noisy neighbour (us)",
            [loaded["fifo"]["p99_us"], loaded["wfq"]["p99_us"]])
    fig.add("victim p99 inflation (x)",
            [inflation["fifo"], inflation["wfq"]])
    fig.add("noisy ops completed",
            [loaded["fifo"]["noisy_ops"], loaded["wfq"]["noisy_ops"]])

    fig.check("(a) live QPs never exceed the cap of 2",
              f"max live {pool['max_live']}, created {pool['created']}, "
              f"evicted {pool['evicted']}, reused {pool['reused']}",
              "bounded connection state (Section III-D)")
    fig.check("(a) QP overflow displaces translation SRAM",
              f"{pool['xlt_cap_before']} -> {pool['xlt_cap_after']} entries",
              "QP explosion degrades translation caching")
    fig.check("(b) WFQ bounds victim p99 inflation under 10x overdrive",
              f"{inflation['wfq']:.2f}x (FIFO: {inflation['fifo']:.2f}x)",
              "<2x with WFQ; FIFO does not bound it")
    fig.check("(c) admission sheds explicitly, never silently",
              f"{adm['ok']} ok + {adm['rejected']} rejected "
              f"= {adm['posted']} posted; reasons {adm['by_reason']}",
              "every op completes; rejects have explicit statuses")
    fig.notes.append(
        "victim: 2 closed-loop streams; noisy: 20 streams on another "
        "machine, same scheduler slots. Latency includes plane queuing.")
    return fig
