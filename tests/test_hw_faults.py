"""Tests for fault injection: slowdowns, jitter, healing, and the
application-level consequences (stragglers, lock liveness)."""

import pytest

from repro import build
from repro.apps.shuffle import DistributedShuffle, ShuffleConfig
from repro.core.locks import RemoteSpinLock
from repro.hw import FaultInjector
from repro.sim import make_rng
from repro.verbs import Worker


def test_slow_port_stretches_occupancy():
    sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 4096)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    lat = {}

    def measure(tag):
        # warm the translation caches so only the fault moves the number
        for _ in range(3):
            yield from w.write(qp, src=lmr[0:32], dst=rmr[0:32], move_data=False)
        t0 = sim.now
        yield from w.write(qp, src=lmr[0:32], dst=rmr[0:32], move_data=False)
        lat[tag] = sim.now - t0

    sim.run(until=sim.process(measure("healthy")))
    injector = FaultInjector(sim)
    injector.slow_port(qp.local_port, factor=4.0)
    sim.run(until=sim.process(measure("degraded")))
    injector.heal_all()
    sim.run(until=sim.process(measure("healed")))
    assert lat["degraded"] > lat["healthy"] + 3 * ctx.params.exec_write_ns * 0.9
    assert lat["healed"] == pytest.approx(lat["healthy"], rel=0.05)
    assert injector.afflicted_count == 0


def test_slowdown_heals_on_schedule():
    sim, cluster, ctx = build(machines=2)
    injector = FaultInjector(sim)
    port = cluster[0].port(0)
    injector.slow_port(port, factor=3.0, duration_ns=10_000)
    assert port.slowdown == 3.0
    sim.run(until=20_000)
    assert port.slowdown == 1.0
    assert injector.afflicted_count == 0


def test_scheduled_slow_heal_preserves_jitter():
    """Regression: a slow_port timer used to wipe jitter injected
    independently on the same port."""
    sim, cluster, ctx = build(machines=2)
    injector = FaultInjector(sim, rng=make_rng(1))
    port = cluster[0].port(0)
    injector.slow_port(port, factor=3.0, duration_ns=5_000)
    injector.jitter_port(port, max_extra_ns=200.0)
    assert injector.afflicted_count == 1    # one port, two faults
    sim.run(until=10_000)
    assert port.slowdown == 1.0             # the slowdown healed...
    assert port.jitter_max_ns == 200.0      # ...the jitter did not
    assert port.jitter_rng is not None
    assert injector.afflicted_count == 1
    injector.heal_all()
    assert port.jitter_max_ns == 0.0 and port.jitter_rng is None
    assert injector.afflicted_count == 0


def test_jitter_heals_on_schedule_leaving_slowdown():
    sim, cluster, ctx = build(machines=2)
    injector = FaultInjector(sim, rng=make_rng(1))
    port = cluster[0].port(0)
    injector.jitter_port(port, max_extra_ns=300.0, duration_ns=2_000)
    injector.slow_port(port, factor=2.0)
    sim.run(until=4_000)
    assert port.jitter_max_ns == 0.0 and port.jitter_rng is None
    assert port.slowdown == 2.0
    assert injector.afflicted_count == 1
    injector.heal_all()
    assert port.slowdown == 1.0
    assert injector.afflicted_count == 0


def test_heal_is_idempotent_and_ignores_unafflicted():
    sim, cluster, ctx = build(machines=2)
    injector = FaultInjector(sim)
    port = cluster[0].port(0)
    injector._heal(port)                    # never afflicted: no-op
    injector.slow_port(port, factor=2.0, duration_ns=1_000)
    injector.heal_all()                     # heal before the timer fires
    sim.run(until=2_000)                    # stale timer: still a no-op
    assert port.slowdown == 1.0
    assert injector.afflicted_count == 0


def test_jitter_requires_rng_and_bounds():
    sim, cluster, ctx = build(machines=2)
    injector = FaultInjector(sim)
    port = cluster[0].port(0)
    with pytest.raises(ValueError):
        injector.jitter_port(port, 100.0)
    with pytest.raises(ValueError):
        FaultInjector(sim, rng=make_rng(0)).slow_port(port, factor=0.5)
    with pytest.raises(ValueError):
        FaultInjector(sim, rng=make_rng(0)).jitter_port(port, -1)
    for inject in (FaultInjector(sim, rng=make_rng(0)).slow_port,
                   FaultInjector(sim, rng=make_rng(0)).jitter_port):
        with pytest.raises(ValueError):
            inject(port, float("nan"))
    assert (port.slowdown, port.jitter_max_ns) == (1.0, 0.0)


#: Each injection that takes ``duration_ns``: (target kind, the
#: arguments before it).
TIMED_FAULTS = {
    "slow_port": ("port", (2.0,)),
    "jitter_port": ("port", (50.0,)),
    "drop_port": ("port", (0.5,)),
    "blackhole_port": ("port", ()),
    "drop_link": ("link", (0.5,)),
    "degrade_link": ("link", (0.5,)),
    "link_down": ("link", ()),
}

#: The fields an injection sets, by target kind.
FAULT_FIELDS = {
    "port": ("slowdown", "jitter_rng", "jitter_max_ns", "loss_prob",
             "loss_rng", "link_up"),
    "link": ("loss_prob", "loss_rng", "degrade_factor", "up"),
}


@pytest.mark.parametrize("duration_ns", [float("nan"), -1.0, 0.0])
@pytest.mark.parametrize("method", sorted(TIMED_FAULTS))
def test_a_rejected_duration_arms_no_fault(method, duration_ns):
    """A duration that is not positive (NaN included) raises before the
    injection touches its target: the port or link keeps every field,
    the injector counts no afflicted target and schedules no heal."""
    sim, cluster, ctx = build(machines=2, topology="leaf-spine")
    kind, args = TIMED_FAULTS[method]
    target = cluster[0].port(0) if kind == "port" else (
        cluster.fabric.leaf_up[0][0])
    fields = FAULT_FIELDS[kind]
    before = [getattr(target, f) for f in fields]
    injector = FaultInjector(sim, rng=make_rng(0))
    with pytest.raises(ValueError):
        getattr(injector, method)(target, *args, duration_ns=duration_ns)
    assert [getattr(target, f) for f in fields] == before
    assert injector.afflicted_count == 0
    sim.run()
    assert sim.now == 0.0


def test_jitter_varies_latency():
    sim, cluster, ctx = build(machines=2)
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 4096)
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    injector = FaultInjector(sim, rng=make_rng(5))
    injector.jitter_port(qp.local_port, max_extra_ns=500.0)
    lats = []

    def client():
        for i in range(24):
            t0 = sim.now
            yield from w.write(qp, src=lmr[0:32], dst=rmr[0:32], move_data=False)
            if i >= 4:  # skip translation warm-up
                lats.append(sim.now - t0)

    sim.run(until=sim.process(client()))
    assert len(set(round(l, 3) for l in lats)) > 5   # actually varies
    assert max(lats) - min(lats) < 600               # bounded


def test_shuffle_straggler_dominates_completion():
    """One slow executor port turns the all-to-all into a tail-latency
    story: total time stretches far beyond the healthy run."""
    def run(slow):
        sim, cluster, ctx = build(machines=8)
        shuffle = DistributedShuffle(
            ctx, 8, ShuffleConfig(strategy="sgl", batch_size=8,
                                  move_data=False),
            entries_per_executor=400, seed=3)
        if slow:
            injector = FaultInjector(sim)
            ex = shuffle.executors[3]
            injector.slow_port(
                ctx.cluster[ex.machine].port(0), factor=10.0)
        return shuffle.run().elapsed_ns

    healthy = run(False)
    degraded = run(True)
    assert degraded > 2.5 * healthy


def test_lock_liveness_with_one_slow_client():
    """A degraded client slows itself, not the protocol: everyone still
    acquires, mutual exclusion holds."""
    sim, cluster, ctx = build(machines=4)
    lock_mr = ctx.register(0, 4096)
    injector = FaultInjector(sim)
    locks, counts = [], []
    for i in range(3):
        m = i + 1
        w = Worker(ctx, m)
        qp = ctx.create_qp(m, 0)
        scratch = ctx.register(m, 4096)
        locks.append(RemoteSpinLock(w, qp, scratch, lock_mr))
    injector.slow_port(locks[0].qp.local_port, factor=8.0)
    in_cs, max_cs = [0], [0]

    def client(lk):
        acquired = 0
        for _ in range(6):
            yield from lk.acquire()
            in_cs[0] += 1
            max_cs[0] = max(max_cs[0], in_cs[0])
            yield sim.timeout(200)
            in_cs[0] -= 1
            yield from lk.release()
            acquired += 1
        counts.append(acquired)

    procs = [sim.process(client(lk)) for lk in locks]
    for p in procs:
        sim.run(until=p)
    assert max_cs[0] == 1
    assert counts == [6, 6, 6]
