"""Section II-B2's metadata-pressure observations, reproduced.

* "with large number of MRs, the performance will degrade greatly.  We
  use 10x MRs, the access latency of 32 bytes drops about 60%."
* "the throughput of file system operations decreases by almost 50% when
  the number of clients increases from 40 to 120" (QP-state thrash).
"""

import pytest

from repro import build
from repro.hw import HardwareParams
from repro.verbs import Opcode, Sge, Worker, WorkRequest


def _mr_sweep_latency(n_mrs: int, params=None) -> float:
    """Mean 32 B write latency when accesses round-robin over n_mrs MRs."""
    sim, cluster, ctx = build(machines=2, params=params)
    lmr = ctx.register(0, 1 << 16, socket=0)
    mrs = [ctx.register(1, 1 << 20, socket=0) for _ in range(n_mrs)]
    qp = ctx.create_qp(0, 1)
    w = Worker(ctx, 0)
    lats = []

    def client():
        # Cycle deterministically over every page of every MR: one MR's
        # working set fits the cache after a single pass; ten MRs' cyclic
        # footprint is LRU's worst case (every access misses).
        for i in range(900):
            mr = mrs[i % n_mrs]
            off = ((i // n_mrs) * 4096) % mr.size
            t0 = sim.now
            yield from w.write(qp, src=lmr[0:32], dst=mr[off:off + 32], move_data=False)
            if i >= 300:
                lats.append(sim.now - t0)

    sim.run(until=sim.process(client()))
    return sum(lats) / len(lats)


def test_many_mrs_degrade_latency():
    """10x the MRs (footprint past SRAM coverage) costs ~15-60% latency."""
    # One 1 MB MR = 256 pages: fits the 1024-entry cache, all hits after
    # warm-up.  Ten of them = 2560 pages: thrash on (nearly) every op.
    few = _mr_sweep_latency(1)
    many = _mr_sweep_latency(10)
    assert many > 1.12 * few
    # The paper quotes ~60% degradation; accept a broad band.
    assert many / few < 2.0


def test_qp_thrash_degrades_many_client_throughput():
    """More client QPs than the SRAM holds: per-op QP-state misses."""
    def run(n_clients, cache):
        params = HardwareParams().derive(qp_cache_entries=cache)
        sim, cluster, ctx = build(machines=8, params=params)
        server_mr = ctx.register(0, 1 << 20)
        done = [0]

        def client(i):
            m = 1 + i % 7
            w = Worker(ctx, m, socket=i % 2)
            qp = ctx.create_qp(m, 0, local_port=i % 2, remote_port=i % 2)
            lmr = ctx.register(m, 1 << 16, socket=i % 2)
            for k in range(40):
                off = (i * 64) % 4096
                yield from w.write(qp, src=lmr[0:32],
                                   dst=server_mr[off:off + 32],
                                   move_data=False)
                done[0] += 1

        procs = [sim.process(client(i)) for i in range(n_clients)]
        for p in procs:
            sim.run(until=p)
        return done[0] * 1000 / sim.now, cluster[0].rnic.qp_cache.misses

    # Cache big enough for everyone: no thrash.
    rate_fit, misses_fit = run(24, cache=64)
    # Cache holding a third of the QPs: every op risks a QP-state fetch.
    rate_thrash, misses_thrash = run(24, cache=8)
    assert misses_thrash > 4 * misses_fit
    assert rate_thrash < 0.9 * rate_fit


def test_deregistration_invalidates_translation():
    """Touching a fresh MR over a recycled address misses again."""
    sim, cluster, ctx = build(machines=2)
    rnic = cluster[1].rnic
    mr = ctx.register(1, 1 << 16)
    assert rnic.translate(mr, 0, 32) > 0     # compulsory miss
    assert rnic.translate(mr, 0, 32) == 0    # hit
    rnic.translation_cache.invalidate(mr.key_base)  # [0, 32)'s one page
    assert rnic.translate(mr, 0, 32) > 0     # gone after invalidation
