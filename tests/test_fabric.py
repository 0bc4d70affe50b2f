"""The multi-switch fabric subsystem (repro.hw.fabric).

Five layers:

* schedule identity — the default single-switch topology dispatches the
  *bit-identical* event timeline the pre-fabric model did (digest pin);
* link/route units — latency arithmetic per topology, ECN threshold,
  tail-drop bound, ECMP determinism;
* DCQCN units — MD coalescing window, capped AI credit, pacing math;
* end-to-end — incast queue growth stays bounded, DCQCN beats the
  uncontrolled run, traffic routes around a killed spine link;
* plumbing — construction API, rack addressing, params validation and
  the fabric checker.
"""

import hashlib

import pytest

from repro import build
from repro.bench import ext9_fabric_scale as ext9
from repro.bench.runner import write_wr
from repro.check import Sanitizer, differential
from repro.check.stepped import traverse
from repro.hw import FaultInjector, HardwareParams
from repro.hw.fabric import (
    ClosFabric,
    DcqcnLimiter,
    LeafSpineFabric,
    Link,
    Route,
    SingleSwitchFabric,
    build_fabric,
    ecmp_mix,
)
from repro.sim import Simulator
from repro.verbs import Opcode, Sge, Worker, WorkRequest

# Pins of a 3-machine mixed WRITE/READ/FAA workload on the default
# topology, stepped pipeline.  The contract: single-switch outcomes never
# move.  ``BASELINE_NOW`` is the pre-fabric code's (commit b33e484) and
# ``BASELINE_COMPLETIONS`` (every completion of the run) was taken at
# commit 0afc8bf; neither may change.  The event count and timeline
# digest may be re-cut only by a deliberate event elision that keeps
# both: folding each signaled WRITE and FAA's ACK wire and CQE DMA into
# one wake (40 events), deleting the CQE deposit's no-op put-ack (60) and
# taking a free atomic word lock in the arrival dispatch instead of
# through a grant event (20) took the count from 1293 to 1173.  Keying
# each data-less WRITE's folded ACK+CQE wait after its later hold end,
# and each signaled data-less READ's CQE wait after its delivery DMA's
# end (``Simulator.call_keyed``, which allocates no seq), moved only the
# seqs of the keys: every dispatch's time and priority, in order, and
# the count stayed.
BASELINE_NOW = 113623.14822335038
BASELINE_EVENTS = 1173
BASELINE_DIGEST = \
    "e7465e6b588bde5c2e60388ac83292b12af8bea50cde4c56e74e2f3a91315f3d"
BASELINE_COMPLETIONS = \
    "14e38badc7108de5a8c187f776800c262f83f21f167b80fc952f92772743066c"


def _drain(gen):
    """Drive a stepped ``traverse`` generator to completion outside the
    sim loop; returns (yielded delays, return value)."""
    delays = []
    try:
        while True:
            delays.append(next(gen))
    except StopIteration as stop:
        return delays, stop.value


# ------------------------------------------------------ schedule identity

def test_single_switch_schedule_identical_to_pre_fabric():
    # The pins are the stepped pipeline's timeline and completions.
    def scenario():
        sim, cluster, ctx = build(machines=3)
        timeline = []
        sim.trace_dispatch = lambda t, p, s: timeline.append((t, p, s))
        lmr = ctx.register(0, 1 << 16)
        rmr = ctx.register(1, 1 << 16)
        rmr2 = ctx.register(2, 1 << 16)
        qp = ctx.create_qp(0, 1)
        qp2 = ctx.create_qp(0, 2)
        w = Worker(ctx, 0, socket=0)

        def drive():
            for i in range(20):
                size = [32, 256, 4096][i % 3]
                wr = WorkRequest(Opcode.WRITE, sgl=[Sge(lmr, 0, size)],
                                 remote_mr=rmr, remote_offset=0,
                                 move_data=False)
                ev = yield from w.post(qp, wr)
                yield from w.wait(ev)
                rr = WorkRequest(Opcode.READ, sgl=[Sge(lmr, 0, size)],
                                 remote_mr=rmr2, remote_offset=0,
                                 move_data=False)
                ev = yield from w.post(qp2, rr)
                yield from w.wait(ev)
                aw = WorkRequest(Opcode.FAA, remote_mr=rmr, remote_offset=64,
                                 add=1)
                ev = yield from w.post(qp, aw)
                yield from w.wait(ev)

        sim.run(until=sim.process(drive()))
        return sim.now, timeline

    run = differential.run(scenario, express=False)
    now, timeline = run.value
    digest = hashlib.sha256(repr(timeline).encode()).hexdigest()
    assert now == BASELINE_NOW
    assert run.digests == [BASELINE_COMPLETIONS]
    assert len(timeline) == BASELINE_EVENTS
    assert digest == BASELINE_DIGEST


def test_plain_route_is_one_bare_delay():
    """The single-switch fast path: no links, exactly one yield of the
    classic crossbar constant, never drops or marks."""
    sim = Simulator()
    params = HardwareParams()
    fabric = SingleSwitchFabric(sim, params)
    route = fabric.path(None, None)
    assert route.links == ()
    assert route.hops == 1
    expect = 2 * params.wire_latency_ns + params.switch_latency_ns
    assert route.base_ns() == expect
    delays, result = _drain(traverse(route, 1 << 20))
    assert delays == [expect]
    assert result == (True, False)
    # Routes are shared: every path() call returns the same object.
    assert fabric.path(None, None) is route


# --------------------------------------------------- latency arithmetic

def test_leaf_spine_latency_arithmetic():
    sim = Simulator()
    params = HardwareParams()
    w, s = params.wire_latency_ns, params.switch_latency_ns
    fabric = LeafSpineFabric(sim, params, machines=9)
    same_leaf = fabric._build(0, 1, ())
    assert len(same_leaf.links) == 2
    assert same_leaf.base_ns() == 2 * w + s
    cross = fabric._build(0, 4, (0,))
    assert len(cross.links) == 4
    assert cross.base_ns() == 4 * w + 3 * s
    # Uncongested traverse pays base latency + per-hop serialization.
    delays, result = _drain(traverse(cross, 4096))
    assert result == (True, False)
    assert sum(delays) == pytest.approx(
        cross.base_ns() + sum(link.ser_ns(4096) for link in cross.links))


def test_clos_latency_arithmetic():
    sim = Simulator()
    params = HardwareParams()
    w, s = params.wire_latency_ns, params.switch_latency_ns
    fabric = ClosFabric(sim, params, machines=16)
    assert fabric._build(0, 2, ()).base_ns() == 2 * w + s
    same_pod = fabric._build(0, 4, ("agg", 1))
    assert len(same_pod.links) == 4
    assert same_pod.base_ns() == 4 * w + 3 * s
    cross_pod = fabric._build(0, 8, ("core", 1))
    assert len(cross_pod.links) == 6
    assert cross_pod.base_ns() == 6 * w + 5 * s


def test_oversubscription_thins_uplinks():
    sim = Simulator()
    thin = HardwareParams(oversubscription=4.0)
    fat = HardwareParams()
    f_thin = LeafSpineFabric(sim, thin, machines=8)
    f_fat = LeafSpineFabric(sim, fat, machines=8)
    # Non-blocking at 1:1 — per-leaf uplink capacity == host capacity.
    assert sum(l.bandwidth_Bns for l in f_fat.leaf_up[0]) == pytest.approx(
        4 * fat.link_bandwidth_Bns)
    assert f_thin.leaf_up[0][0].bandwidth_Bns == pytest.approx(
        f_fat.leaf_up[0][0].bandwidth_Bns / 4.0)


# ----------------------------------------------------------- link units

def _link(params):
    # Bandwidth 2.0 B/ns divides the 4126-byte wire size exactly, so the
    # virtual-time backlog is FP-exact and the threshold packets below
    # are deterministic rather than one-off at an epsilon boundary.
    return Link("test", params, bandwidth_Bns=2.0)


def test_ecn_marks_fire_exactly_at_threshold():
    # queue = 32 packets, ECN at 25% -> the 9th back-to-back arrival is
    # the first to see backlog >= 8 packets, and the first marked.
    params = HardwareParams(link_queue_depth=32, ecn_threshold=0.25)
    link = _link(params)
    outcomes = [link.admit(0.0, params.mtu_bytes) for _ in range(10)]
    marks = [marked for _, marked, _, _ in outcomes]
    assert marks == [False] * 8 + [True, True]
    assert link.ecn_marks == 2
    assert not any(dropped for _, _, dropped, _ in outcomes)


def test_tail_drop_and_bounded_queue_peak():
    params = HardwareParams(link_queue_depth=32)
    link = _link(params)
    outcomes = [link.admit(0.0, params.mtu_bytes) for _ in range(40)]
    drops = [dropped for _, _, dropped, _ in outcomes]
    # Exactly queue_depth packets fit in a same-instant burst; the rest
    # tail-drop and the occupancy peak never exceeds the buffer.
    assert drops == [False] * 32 + [True] * 8
    assert link.packets_out == 32
    assert link.packets_dropped == 8
    assert link.queue_peak_bytes <= link.queue_bytes
    assert link.packets_in == link.packets_out + link.packets_dropped


def test_ack_priority_never_drops():
    params = HardwareParams(link_queue_depth=4)
    link = _link(params)
    for _ in range(4):
        link.admit(0.0, params.mtu_bytes)
    delay, _, dropped, _ = link.admit(0.0, 64, droppable=False)
    assert not dropped
    # ...but it still pays the queue wait behind the backlog.
    assert delay > link.latency_ns + link.ser_ns(64)


def test_queue_drains_in_virtual_time():
    params = HardwareParams(link_queue_depth=8)
    link = _link(params)
    link.admit(0.0, params.mtu_bytes)
    busy_until = link._free_at
    assert link.queue_ns(busy_until / 2) == pytest.approx(busy_until / 2)
    assert link.queue_ns(busy_until) == 0.0
    delay, marked, dropped, _ = link.admit(busy_until, params.mtu_bytes)
    assert (marked, dropped) == (False, False)
    assert delay == pytest.approx(link.ser_ns(params.mtu_bytes)
                                  + link.latency_ns)


# ----------------------------------------------------------------- ECMP

def test_ecmp_mix_is_process_stable():
    # Hardcoded values pin cross-process / cross-platform stability
    # (Python's builtin hash is salted; this must not be).
    assert ecmp_mix(3, 7, 42) == 3341857515
    assert ecmp_mix(0, 4, 5, seed=0) == 2966289044
    assert ecmp_mix(3, 7, 42) == ecmp_mix(3, 7, 42)
    assert ecmp_mix(3, 7, 42, seed=1) != ecmp_mix(3, 7, 42)


def test_ecmp_determinism_and_spread():
    sim, cluster, _ = build(machines=9, topology="leaf-spine")
    fabric = cluster.fabric
    p0 = cluster[0].rnic.ports[0]
    p4 = cluster[4].rnic.ports[0]
    # Same (src, dst, flow) -> the same cached Route object.
    assert fabric.path(p0, p4, flow=7) is fabric.path(p0, p4, flow=7)
    # Same-leaf flows never climb to a spine.
    p1 = cluster[1].rnic.ports[0]
    assert fabric.path(p0, p1, flow=7).via == ()
    # Across enough flows, cross-leaf traffic uses every spine.
    vias = {fabric.path(p0, p4, flow=f).via for f in range(64)}
    assert vias == {(0,), (1,)}


# ---------------------------------------------------------- DCQCN units

def test_dcqcn_md_coalescing_window():
    lim = DcqcnLimiter(HardwareParams(dcqcn_enabled=True))
    assert not lim.throttled
    lim.on_ecn(0.0)
    assert (lim.rate_Bns, lim.decreases) == (2.5, 1)
    # A second mark inside the window counts but does not cut again.
    lim.on_ecn(5_000.0)
    assert (lim.rate_Bns, lim.decreases, lim.ecn_marks) == (2.5, 1, 2)
    lim.on_ecn(10_000.0)
    assert (lim.rate_Bns, lim.decreases) == (1.25, 2)
    assert lim.throttled


def test_dcqcn_ai_credit_is_capped():
    lim = DcqcnLimiter(HardwareParams(dcqcn_enabled=True))
    lim.on_ecn(0.0)           # rate 2.5, last event at t=0
    # A 1 ms stall earns at most one window (10 us) of AI credit:
    # 0.10 B/ns/us * 10 us = +1.0 B/ns, NOT a leap back to line rate.
    lim.on_delivered(1e6)
    assert lim.rate_Bns == pytest.approx(3.5)
    # Zero elapsed time -> zero credit.
    lim.on_delivered(1e6)
    assert lim.rate_Bns == pytest.approx(3.5)


def test_dcqcn_pacing_charges_only_the_difference():
    params = HardwareParams(dcqcn_enabled=True)
    lim = DcqcnLimiter(params)
    assert lim.pace_ns(0.0, 4096) == 0.0          # line rate: no pacing
    lim.on_ecn(0.0)                               # rate 2.5 of line 5.0
    assert lim.pace_ns(0.0, 4096) == 0.0          # first message starts now
    # The next back-to-back message waits out the rate difference:
    # 4096 B * (1/2.5 - 1/5.0) ns/B = 819.2 ns.
    assert lim.pace_ns(0.0, 4096) == pytest.approx(819.2)


def test_dcqcn_port_attachment():
    _, cluster, _ = build(machines=2)
    assert cluster[0].rnic.ports[0].dcqcn is None
    _, on, _ = build(machines=2,
                     params=HardwareParams(machines=2, dcqcn_enabled=True))
    assert isinstance(on[0].rnic.ports[0].dcqcn, DcqcnLimiter)


# ------------------------------------------------------------ end-to-end

def _incast_once(fanout=4, writes=8, **overrides):
    params = HardwareParams(machines=fanout + 1, link_queue_depth=4,
                            **overrides)
    sim, cluster, ctx = build(params=params, topology="leaf-spine")
    rmr = ctx.register(0, 4096)
    done = []

    def sender(i):
        lmr = ctx.register(i, 4096)
        qp = ctx.create_qp(i, 0)
        w = Worker(ctx, i, socket=0)
        wr = write_wr(lmr, rmr, 4096)
        # Burst the whole batch so the target's 4-deep downlink buffer
        # sees fanout*writes concurrent arrivals and must overflow.
        events = []
        for _ in range(writes):
            ev = yield from w.post(qp, wr)
            events.append(ev)
        for ev in events:
            yield from w.wait(ev)
        done.append(i)

    procs = [sim.process(sender(i)) for i in range(1, fanout + 1)]
    for p in procs:
        sim.run(until=p)
    return cluster, len(done)


def test_incast_queue_growth_is_bounded():
    cluster, finished = _incast_once()
    assert finished == 4
    fabric = cluster.fabric
    assert fabric.drops > 0          # a 4-deep buffer must overflow
    for link in fabric.all_links():
        # The peak is tracked through a time->bytes conversion, so allow
        # sub-byte float error; the buffer itself never over-admits.
        assert link.queue_peak_bytes <= link.queue_bytes + 0.5
        assert link.packets_in == link.packets_out + link.packets_dropped


def test_dcqcn_throttles_the_incast():
    # The bench's own quick worst point (17 hosts, 16-to-1): with DCQCN
    # the same workload drops far less, completes faster per round at
    # the median, and recovers at least 1.5x goodput.
    off = ext9._run_incast(nodes=17, fanout=16, dcqcn=False, rounds=12)
    on = ext9._run_incast(nodes=17, fanout=16, dcqcn=True, rounds=12)
    assert off["drops"] > on["drops"]
    assert on["goodput_GBps"] > 1.5 * off["goodput_GBps"]
    assert on["p50_us"] < off["p50_us"]


def test_link_fault_failover():
    sim, cluster, ctx = build(machines=9, topology="leaf-spine")
    fabric = cluster.fabric
    injector = FaultInjector(sim)
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(4, 4096)
    qp = ctx.create_qp(0, 4)        # cross-leaf: route climbs a spine
    spine = qp._route.via[0]
    dead = fabric.leaf_up[0][spine]
    assert dead in qp._route.links
    injector.link_down(dead)
    w = Worker(ctx, 0, socket=0)
    ok = []

    def drive():
        wr = write_wr(lmr, rmr, 2048)
        for _ in range(10):
            ev = yield from w.post(qp, wr)
            comp = yield from w.wait(ev)
            ok.append(comp.ok)

    p = sim.process(drive())
    sim.run(until=p)
    # Every WR completed: retransmissions re-salted the ECMP hash and
    # routed around the dead uplink via the surviving spine.
    assert all(ok) and len(ok) == 10
    assert qp.retransmissions > 0
    assert dead.packets_dropped > 0
    other = fabric.leaf_up[0][1 - spine]
    assert other.packets_out > 0
    injector.link_up(dead)
    assert dead.up and injector.afflicted_count == 0


def test_degrade_link_halves_bandwidth_and_heals():
    sim = Simulator()
    params = HardwareParams()
    fabric = LeafSpineFabric(sim, params, machines=8)
    link = fabric.leaf_up[0][0]
    nominal = link.ser_ns(4096)
    injector = FaultInjector(sim)
    injector.degrade_link(link, 0.5)
    assert link.ser_ns(4096) == pytest.approx(2 * nominal)
    injector.heal_all()
    assert link.ser_ns(4096) == pytest.approx(nominal)
    assert injector.afflicted_count == 0
    with pytest.raises(ValueError):
        injector.degrade_link(link, 1.5)
    with pytest.raises(ValueError):
        injector.drop_link(link, 0.5)   # i.i.d. loss requires an rng


# --------------------------------------------------------------- plumbing

def test_build_fabric_resolution():
    sim = Simulator()
    params = HardwareParams()
    assert isinstance(build_fabric("single", sim, params, 8),
                      SingleSwitchFabric)
    assert isinstance(build_fabric("leaf-spine", sim, params, 8),
                      LeafSpineFabric)
    assert isinstance(build_fabric("clos", sim, params, 8), ClosFabric)
    custom = LeafSpineFabric(sim, params, 8, hosts_per_leaf=2, spines=4)
    assert build_fabric(custom, sim, params, 8) is custom
    with pytest.raises(ValueError, match="unknown topology"):
        build_fabric("torus", sim, params, 8)


def test_rack_aware_placement():
    _, cluster, _ = build(machines=9, topology="leaf-spine")
    assert cluster.racks == 3
    assert cluster.machine(rack=1, index=0) is cluster.machines[4]
    assert cluster.machine(index=2) is cluster.machines[2]
    assert cluster.rack_of(5) == 1
    assert cluster.machines[5].rack == 1
    with pytest.raises(IndexError):
        cluster.machine(rack=3, index=0)
    with pytest.raises(IndexError):
        cluster.machine(rack=2, index=1)    # rack 2 holds only machine 8
    # The default topology is one rack, addressed as rack 0.
    _, single, _ = build(machines=4)
    assert single.racks == 1
    assert single.machine(rack=0, index=3) is single.machines[3]
    with pytest.raises(IndexError):
        single.machine(rack=1, index=0)
    # A Clos fabric's racks are its edge switches.
    _, clos, _ = build(machines=10, topology="clos")
    per_edge = clos.fabric.hosts_per_edge
    assert clos.machine(rack=1, index=1) is clos.machines[per_edge + 1]
    assert clos.rack_of(per_edge + 1) == 1
    with pytest.raises(IndexError):
        clos.machine(rack=clos.racks, index=0)
    with pytest.raises(IndexError):
        clos.machine(rack=0, index=per_edge)


@pytest.mark.parametrize("bad", [
    {"link_queue_depth": 0},
    {"ecn_threshold": 0.0},
    {"ecn_threshold": 1.5},
    {"oversubscription": 0.5},
    {"dcqcn_rate_md": 0.0},
    {"dcqcn_rate_md": 1.0},
    {"dcqcn_rate_ai_Bns": 0.0},
    {"dcqcn_min_rate_Bns": 0.0},
    {"dcqcn_min_rate_Bns": 100.0},
    {"dcqcn_md_window_ns": -1.0},
])
def test_fabric_params_validation(bad):
    with pytest.raises(ValueError):
        HardwareParams(**bad).validate()


def test_fabric_checker_clean_and_corrupted():
    sim, cluster, ctx = build(machines=9, topology="leaf-spine")
    san = Sanitizer(sim, checkers=("fabric",))
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(4, 4096)
    qp = ctx.create_qp(0, 4)
    w = Worker(ctx, 0, socket=0)

    def drive():
        wr = write_wr(lmr, rmr, 4096)
        for _ in range(8):
            ev = yield from w.post(qp, wr)
            yield from w.wait(ev)

    p = sim.process(drive())
    sim.run(until=p)
    assert san.fabric.hops_seen > 0
    report = san.finalize()
    assert report.ok

    # Mutating a counter outside Link.admit must be caught.
    sim2, cluster2, ctx2 = build(machines=9, topology="leaf-spine")
    san2 = Sanitizer(sim2, checkers=("fabric",))
    lmr2 = ctx2.register(0, 4096)
    rmr2 = ctx2.register(4, 4096)
    qp2 = ctx2.create_qp(0, 4)
    w2 = Worker(ctx2, 0, socket=0)

    def drive2():
        ev = yield from w2.post(qp2, write_wr(lmr2, rmr2, 4096))
        yield from w2.wait(ev)

    p2 = sim2.process(drive2())
    sim2.run(until=p2)
    qp2._route.links[0].packets_out += 1
    report2 = san2.finalize()
    assert not report2.ok
    assert report2.counts["fabric"] > 0


def test_route_repr_and_describe():
    sim = Simulator()
    params = HardwareParams()
    fabric = LeafSpineFabric(sim, params, machines=8)
    route = fabric._build(0, 4, (1,))
    assert "spine1" in repr(route)
    assert "leaf-spine" in fabric.describe()
    assert "8 hosts" in fabric.describe()
    plain = Route(fabric, (), 220.0)
    assert "plain" in repr(plain)
