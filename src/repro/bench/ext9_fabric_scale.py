"""Extension 9 — fabric scale: incast collapse and DCQCN mitigation.

The paper's testbed is one InfiniScale-IV crossbar where the sending
RNIC is always the bottleneck; at datacenter scale the *fabric* is
(:mod:`repro.hw.fabric`).  This bench puts the leaf-spine topology under
the classic synchronized many-to-one pattern (Vasudevan et al.,
SIGCOMM'09): an aggregator strips a block over ``fanout`` peers and
cannot start the next block until **every** peer's chunk has landed —
shuffle, scatter/gather, and replicated-write barriers all look like
this.  Every round, all senders burst concurrently into the target
host's single downlink; once the burst overflows the link's buffer,
tail-drops begin, and each dropped WR stalls its sender for an RC
retransmission timeout that *dwarfs* the round's useful work.  The
barrier turns one stalled sender into a stalled fanout: the bottleneck
link sits idle while everyone waits out the timeout.  That is incast
collapse — offered load up, goodput *down*, p99 through the roof.

With ``dcqcn_enabled`` the same run marks packets at the ECN threshold
(well before overflow), each marked delivery multiplicatively decreases
its sender's rate (at most one cut per ``dcqcn_md_window_ns``), and
pacing spreads each round's burst to the drain rate: few drops, few
timeouts, rounds complete in serialization time, goodput recovered.

Two probes share one x-axis:

* ``f=N`` — fanout sweep at 17 hosts (5 leaves x 2 spines): N senders,
  one target.  Collapse appears once a round's burst (N x BLOCK
  packets) overflows the downlink queue.
* ``n=N`` — scale sweep: an (N-1)-to-1 incast on an N-host fabric, i.e.
  the whole cluster gangs up on one node.

Every point runs twice, DCQCN off and on; the headline acceptance check
is that DCQCN recovers >= 2x goodput at the worst (most collapsed)
point.  Deterministic: no rng anywhere on this path (ECMP is a seeded
hash), so serial and ``--jobs N`` campaigns merge bit-identically.
"""

from __future__ import annotations

from repro import build
from repro.bench.report import FigureResult
from repro.bench.runner import write_wr
from repro.hw import HardwareParams
from repro.sim.stats import percentiles
from repro.verbs import Worker

__all__ = ["points", "run_point", "assemble"]

FANOUTS = [1, 2, 4, 8, 16]
FANOUT_NODES = 17            # 5 leaves x 4 hosts (one slot spare)
SCALES = [5, 9, 17]          # (N-1)-to-1 incast at N hosts
OP_BYTES = 4096              # one MTU per WRITE
BLOCK = 4                    # WRITEs per sender per synchronized round
#: Bench fabric: the round burst (fanout x BLOCK packets) overflows a
#: 32-MTU buffer once fanout exceeds ~8, and a retransmission timeout
#: far above the queue drain time (~26 us) makes each drop a
#: link-idling stall.  ECN marks at a quarter of the buffer, leaving 24
#: packets of headroom for the paced steady-state burst to wiggle in.
QUEUE_DEPTH = 32
RETRANS_US = 150.0
RETRY_CNT = 12
ECN_THRESHOLD = 0.25


def _params(nodes: int, dcqcn: bool) -> HardwareParams:
    return HardwareParams(machines=nodes, dcqcn_enabled=dcqcn,
                          link_queue_depth=QUEUE_DEPTH,
                          retrans_timeout_ns=RETRANS_US * 1e3,
                          retry_cnt=RETRY_CNT,
                          ecn_threshold=ECN_THRESHOLD)


class _Barrier:
    """Round barrier: the last arriver releases everyone, no sim events
    beyond the one release per round."""

    def __init__(self, sim, n: int):
        self.sim = sim
        self.n = n
        self.count = 0
        self.ev = sim.event()

    def arrive(self):
        """Returns the event to wait on, or None for the last arriver."""
        self.count += 1
        if self.count == self.n:
            ev, self.ev, self.count = self.ev, self.sim.event(), 0
            ev.succeed()
            return None
        return self.ev


def _sender(sim, ctx, qp, worker, lmr, rmr, rounds: int, barrier: _Barrier,
            stats: dict):
    """One peer of the synchronized incast: each round, burst ``BLOCK``
    WRITEs, wait them out (reconnecting if the retry budget dies), then
    hold at the barrier until the whole fanout's round is done."""
    wr = write_wr(lmr, rmr, OP_BYTES)
    for _ in range(rounds):
        t0 = sim.now
        pending = BLOCK
        while pending:
            events = []
            for _ in range(pending):
                ev = yield from worker.post(qp, wr)
                events.append(ev)
            pending = 0
            for ev in events:
                comp = yield from worker.wait(ev)
                if comp.ok:
                    stats["delivered"] += 1
                else:
                    pending += 1
            if pending:
                # Retry budget exhausted mid-round: recover the QP and
                # re-issue the lost WRs so the barrier semantics (every
                # chunk lands) survive deep collapse.
                stats["lost"] += pending
                if (yield from ctx.recover_qp(qp)):
                    stats["reconnects"] += 1
        stats["lat"].append(sim.now - t0)
        release = barrier.arrive()
        if release is not None:
            yield release


def _run_incast(nodes: int, fanout: int, dcqcn: bool, rounds: int) -> dict:
    sim, cluster, ctx = build(machines=nodes, params=_params(nodes, dcqcn),
                              topology="leaf-spine")
    target = 0
    rmr = ctx.register(target, OP_BYTES * fanout)
    barrier = _Barrier(sim, fanout)
    procs = []
    stats_all = []
    for i in range(1, fanout + 1):
        lmr = ctx.register(i, OP_BYTES)
        qp = ctx.create_qp(i, target)
        worker = Worker(ctx, i, socket=0)
        stats = {"delivered": 0, "lost": 0, "reconnects": 0, "lat": []}
        stats_all.append(stats)
        procs.append(sim.process(
            _sender(sim, ctx, qp, worker, lmr, rmr, rounds, barrier, stats)))
    for p in procs:
        sim.run(until=p)
    span_ns = sim.now
    delivered = sum(s["delivered"] for s in stats_all)
    lat = sorted(x for s in stats_all for x in s["lat"])
    p50, p99 = (percentiles(lat, (50, 99)) if lat else (0.0, 0.0))
    fabric = cluster.fabric
    return {
        "goodput_GBps": delivered * OP_BYTES / span_ns if span_ns else 0.0,
        "p50_us": p50 / 1e3,
        "p99_us": p99 / 1e3,
        "delivered": delivered,
        "lost": sum(s["lost"] for s in stats_all),
        "drops": fabric.drops,
        "reconnects": sum(s["reconnects"] for s in stats_all),
        "span_us": span_ns / 1e3,
    }


def points(quick: bool = True) -> list:
    pts = []
    for dcqcn in (False, True):
        pts.extend({"probe": "fanout", "nodes": FANOUT_NODES, "fanout": f,
                    "dcqcn": dcqcn} for f in FANOUTS)
        pts.extend({"probe": "nodes", "nodes": n, "fanout": n - 1,
                    "dcqcn": dcqcn} for n in SCALES)
    return pts


def run_point(point: dict, quick: bool = True):
    rounds = 12 if quick else 48
    return _run_incast(point["nodes"], point["fanout"], point["dcqcn"],
                       rounds)


def assemble(values: list, quick: bool = True) -> FigureResult:
    n_f, n_s = len(FANOUTS), len(SCALES)
    off = values[0:n_f + n_s]
    on = values[n_f + n_s:]
    x = ([f"f={f}" for f in FANOUTS] + [f"n={n}" for n in SCALES])

    fig = FigureResult(
        name="Ext 9",
        title="Leaf-spine incast: goodput collapse at high fanout and "
              "DCQCN mitigation — extension",
        x_label=f"senders (f=fanout at {FANOUT_NODES} hosts; "
                "n=all-to-one at n hosts)",
        x_values=x,
        y_label="goodput GB/s / round p99 us")
    fig.add("goodput GB/s (dcqcn off)",
            [round(v["goodput_GBps"], 4) for v in off])
    fig.add("goodput GB/s (dcqcn on)",
            [round(v["goodput_GBps"], 4) for v in on])
    fig.add("round p99 us (dcqcn off)",
            [round(v["p99_us"], 2) for v in off])
    fig.add("round p99 us (dcqcn on)",
            [round(v["p99_us"], 2) for v in on])
    fig.add("drops (dcqcn off)", [v["drops"] for v in off])
    fig.add("drops (dcqcn on)", [v["drops"] for v in on])

    # Most-collapsed point = worst uncontrolled round tail (ties broken
    # toward the later, larger-fanout point).
    worst = max(range(len(off)), key=lambda i: (off[i]["p99_us"], i))
    # The acceptance anchor: at the most collapsed point, DCQCN recovers
    # at least 2x the goodput of the uncontrolled run.
    ratio = (on[worst]["goodput_GBps"] / off[worst]["goodput_GBps"]
             if off[worst]["goodput_GBps"] else float("inf"))
    fig.check(
        "incast collapse: round p99 blows up as fanout grows (dcqcn off)",
        f"p99 {off[0]['p99_us']:.1f} us at {x[0]} -> "
        f"{off[n_f - 1]['p99_us']:.1f} us at {x[n_f - 1]}, "
        f"{off[n_f - 1]['drops']} tail-drops",
        "orders of magnitude, driven by timeout+retransmit stalls behind "
        "the round barrier")
    fig.check(
        "goodput collapses under overload (dcqcn off)",
        f"{off[n_f - 1]['goodput_GBps']:.3f} GB/s at {x[n_f - 1]} vs "
        f"{max(v['goodput_GBps'] for v in off[:n_f]):.3f} GB/s best",
        "more senders, less goodput: the incast signature")
    fig.check(
        f"DCQCN recovers >= 2x goodput at the worst point ({x[worst]})",
        f"{on[worst]['goodput_GBps']:.3f} vs "
        f"{off[worst]['goodput_GBps']:.3f} GB/s ({ratio:.1f}x), "
        f"drops {off[worst]['drops']} -> {on[worst]['drops']}",
        ">= 2.0x (ECN pacing keeps each round's burst near the drain rate)")
    fig.notes.append(
        f"leaf-spine (4 hosts/leaf, 2 spines), {OP_BYTES}-byte WRITEs, "
        f"{BLOCK}/sender/round behind a full-fanout barrier, link queue "
        f"{QUEUE_DEPTH} MTUs, retrans timeout {RETRANS_US:g} us; every "
        "sender funnels into the target's one downlink.")
    fig.notes.append(
        "dcqcn-off retry-budget exhaustions (reconnects): "
        + str([v["reconnects"] for v in off]))
    return fig
