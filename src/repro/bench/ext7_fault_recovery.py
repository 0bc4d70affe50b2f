"""Extension 7 — fault recovery on the reliable transport.

The paper's guidelines assume a reliable-connection transport; this
experiment exercises the reliability layer (loss faults in
:mod:`repro.hw.faults`, RC retransmission + QP error states in
:mod:`repro.verbs.qp`) on three fronts:

(a) **blackhole recovery** — a closed-loop write stream crosses a
    blackhole window (100% loss): goodput collapses during the window,
    the errored QP is drained and reconnected, and goodput after the
    window recovers to the pre-fault rate.  Every op either succeeds or
    carries an explicit error status — never a silent success;
(b) **loss-rate tail** — p99 latency inflates monotonically with the
    injected i.i.d. drop probability (each lost attempt costs a
    backed-off transport timeout), while the zero-loss run performs no
    retransmissions at all (the sunny path is untouched);
(c) **retry exhaustion + failover** — a hard port_down burns the full
    ``retry_cnt`` budget, completes with ``RETRY_EXC_ERR``, flushes the
    rest of the send queue, and dual-port failover
    (``reconnect_qp(..., local_port=1, remote_port=1)``) restores
    service on the surviving link.

Everything is closed-loop and deterministic under the root seed.
"""

from __future__ import annotations

from repro import build
from repro.bench.report import FigureResult
from repro.bench.runner import bench_seed
from repro.hw import FaultInjector
from repro.sim import make_rng
from repro.sim.stats import percentiles
from repro.verbs import CompletionStatus, Opcode, Sge, Worker, WorkRequest

__all__ = ["points", "run_point", "assemble"]

WRITE_BYTES = 64
LOSS_RATES = [0.0, 0.01, 0.05, 0.2]

# (a) blackhole timeline, all ns: [0, HOLE_START) is the healthy warm-up,
# the loss window lasts HOLE_NS, and the stream stops at END_NS.
BUCKET_NS = 1_000_000.0
HOLE_START_NS = 5_000_000.0
HOLE_NS = 5_000_000.0
END_NS = 15_000_000.0


def _run_blackhole() -> dict:
    """(a) Goodput per 1 ms bucket across a 5 ms blackhole window."""
    sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 1 << 16)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    injector = FaultInjector(sim)
    sim.timeout(HOLE_START_NS).add_callback(
        lambda _e: injector.blackhole_port(qp.local_port,
                                           duration_ns=HOLE_NS))

    n_buckets = int(END_NS / BUCKET_NS)
    goodput = [0] * n_buckets            # successful ops per bucket
    outcomes = {"ok": 0, "retry_exc": 0, "flushed": 0}

    def stream():
        k = 0
        while sim.now < END_NS:
            off = (WRITE_BYTES * k) % 4096
            comp = yield from w.write(
                qp, src=lmr[0:WRITE_BYTES],
                dst=rmr[off:off + WRITE_BYTES], move_data=False)
            k += 1
            if comp.ok:
                outcomes["ok"] += 1
                bucket = int(comp.timestamp_ns / BUCKET_NS)
                if bucket < n_buckets:
                    goodput[bucket] += 1
                continue
            # Loud failure: account it, then recover the errored QP.
            if comp.status is CompletionStatus.RETRY_EXC_ERR:
                outcomes["retry_exc"] += 1
            elif comp.status is CompletionStatus.WR_FLUSH_ERR:
                outcomes["flushed"] += 1
            else:  # pragma: no cover - no other failure is modeled here
                raise AssertionError(f"unexpected status {comp.status}")
            yield from ctx.recover_qp(qp)

    sim.run(until=sim.process(stream()))

    first_hole = int(HOLE_START_NS / BUCKET_NS)
    first_post = int((HOLE_START_NS + HOLE_NS) / BUCKET_NS)
    pre = goodput[1:first_hole]          # skip the cold-cache bucket 0
    hole = goodput[first_hole:first_post]
    # The first post-window bucket still absorbs the last capped backoff
    # (up to 500 us of timer tail) — recovery is judged after it.
    post = goodput[first_post + 1:]
    return {
        "goodput": goodput,
        "pre_rate": sum(pre) / len(pre),
        "hole_min": min(hole),
        "post_rate": sum(post) / len(post),
        "outcomes": outcomes,
        "retransmissions": qp.retransmissions,
        "fatal_errors": qp.fatal_errors,
        "reconnects": qp.reconnects,
    }


def _run_loss_point(prob: float, ops: int) -> list:
    """(b) one drop-rate point: [p99_us, retransmissions]."""
    sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 1 << 16)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    if prob > 0.0:
        FaultInjector(sim, rng=make_rng(bench_seed(7))).drop_port(
            qp.local_port, prob)
    lat: list[float] = []

    def stream():
        for k in range(ops):
            off = (WRITE_BYTES * k) % 4096
            t0 = sim.now
            comp = yield from w.write(
                qp, src=lmr[0:WRITE_BYTES],
                dst=rmr[off:off + WRITE_BYTES], move_data=False)
            if comp.ok:
                lat.append(sim.now - t0)
            else:
                yield from ctx.recover_qp(qp)

    sim.run(until=sim.process(stream()))
    return [percentiles(sorted(lat), [99])[0] / 1000.0, qp.retransmissions]


def _run_exhaustion_failover() -> dict:
    """(c) port_down burns retry_cnt -> RETRY_EXC_ERR; queued WRs flush;
    dual-port failover restores service."""
    sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 4096)
    qp = ctx.create_qp(0, 1)           # port 0 on both ends
    w = Worker(ctx, 0)
    injector = FaultInjector(sim)
    out: dict = {}

    def scenario():
        # Warm up on the healthy link.
        comp = yield from w.write(qp, src=lmr[0:64], dst=rmr[0:64],
                                  move_data=False)
        assert comp.ok
        injector.port_down(qp.local_port)
        # Pipeline three WRs behind the doomed head so the flush is visible.
        events = []
        for k in range(3):
            wr = WorkRequest(Opcode.WRITE, wr_id=100 + k,
                             sgl=[Sge(lmr, 0, 64)], remote_mr=rmr,
                             remote_offset=64 * k, move_data=False)
            events.append((yield from w.post(qp, wr)))
        comps = []
        for ev in events:
            comps.append((yield from w.wait(ev)))
        out["statuses"] = [c.status.value for c in comps]
        out["state_after"] = qp.state.name
        # Dual-port failover: the second port of each RNIC is healthy.
        yield ctx.reconnect_qp(qp, local_port=1, remote_port=1)
        out["state_recovered"] = qp.state.name
        comp = yield from w.write(qp, src=lmr[0:64], dst=rmr[0:64],
                                  move_data=False)
        out["post_failover_ok"] = comp.ok

    sim.run(until=sim.process(scenario()))
    out["retransmissions"] = qp.retransmissions
    out["flushed"] = qp.flushed_wrs
    return out


def points(quick: bool = True) -> list:
    pts = [{"probe": "blackhole"}]
    pts.extend({"probe": "loss", "prob": prob} for prob in LOSS_RATES)
    pts.append({"probe": "exhaustion"})
    return pts


def run_point(point: dict, quick: bool = True):
    probe = point["probe"]
    if probe == "blackhole":
        return _run_blackhole()
    if probe == "loss":
        return _run_loss_point(point["prob"], 400 if quick else 2000)
    return _run_exhaustion_failover()


def assemble(values: list, quick: bool = True) -> FigureResult:
    loss_rates = LOSS_RATES
    hole = values[0]
    loss = values[1:1 + len(loss_rates)]
    exh = values[-1]
    sweep = {"p99_us": [v[0] for v in loss],
             "retransmissions": [v[1] for v in loss]}

    fig = FigureResult(
        name="Ext 7",
        title="Fault recovery: RC retransmission, QP error flushes, and "
              "failover under injected loss — extension",
        x_label="drop probability",
        x_values=loss_rates,
        y_label="p99 latency (us) / retransmissions")
    fig.add("p99 write latency (us)", sweep["p99_us"])
    fig.add("transport retransmissions", sweep["retransmissions"])

    n_ok = hole["outcomes"]["ok"]
    n_err = hole["outcomes"]["retry_exc"] + hole["outcomes"]["flushed"]
    fig.check("(a) goodput recovers after the blackhole window",
              f"pre {hole['pre_rate']:.0f} -> hole min {hole['hole_min']} "
              f"-> post {hole['post_rate']:.0f} ops/ms "
              f"({hole['reconnects']} reconnects)",
              "post rate within 10% of pre; hole collapses toward 0")
    fig.check("(a) no silent successes across the window",
              f"{n_ok} ok + {n_err} explicit errors "
              f"({hole['outcomes']})",
              "every op completes with SUCCESS or a loud error status")
    fig.check("(b) p99 inflates monotonically with loss; 0-loss is retry-free",
              f"p99 {['%.2f' % v for v in sweep['p99_us']]} us, "
              f"retrans {sweep['retransmissions']}",
              "monotone p99; retransmissions == 0 at p=0")
    fig.check("(c) retry_cnt exhaustion is loud, then dual-port failover",
              f"statuses {exh['statuses']}, "
              f"recovered={exh['post_failover_ok']} on port 1",
              "head RETRY_EXC_ERR, rest WR_FLUSH_ERR, then SUCCESS")
    fig.notes.append(
        "blackhole: 5 ms window on a closed-loop 64 B write stream; "
        "retry budget retry_cnt=7 with 20 us base timeout, 2x backoff "
        "capped at 500 us.")
    return fig
