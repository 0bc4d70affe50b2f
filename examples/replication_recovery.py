#!/usr/bin/env python3
"""Scenario III, generalized: replicate a region, crash, recover fast.

Uses :class:`repro.core.RemoteMirror` to keep two remote copies of a
4 MB region current with block-granular incremental syncs, then clobbers
local memory and migrates the state back — measuring the "short recovery
time" the paper credits remote-memory replication for.

Run:  python examples/replication_recovery.py
"""

from repro import build
from repro.core import RemoteMirror, Replica
from repro.sim import make_rng
from repro.verbs import Worker

REGION = 4 << 20   # 4 MB


def main() -> None:
    sim, cluster, ctx = build(machines=3)
    local = ctx.register(0, REGION, socket=0)
    replicas = [Replica(ctx.register(m, REGION, socket=0),
                        ctx.create_qp(0, m)) for m in (1, 2)]
    me = Worker(ctx, 0, socket=0)
    mirror = RemoteMirror(me, local, replicas, block_bytes=4096)
    rng = make_rng(21)

    print("== replicate: dirty 5% of the region, sync twice ==")

    def workload():
        yield from mirror.write(4096 * 7, b"mark-me")   # a known fingerprint
        for round_no in range(2):
            blocks = rng.choice(mirror.n_blocks, size=mirror.n_blocks // 20,
                                replace=False)
            for b in sorted(int(x) for x in blocks):
                yield from mirror.write(b * 4096, b"round-%d" % round_no)
            t0 = sim.now
            pushed = yield from mirror.sync()
            print(f"  sync {round_no}: {pushed >> 10} KiB to 2 replicas "
                  f"in {(sim.now - t0) / 1e6:.3f} ms "
                  f"({len(mirror.dirty_blocks())} blocks left dirty)")

    sim.run(until=sim.process(workload()))

    print("\n== crash: local region zeroed; migrate back from replica 1 ==")
    fingerprint = local.read(4096 * 7, 7)
    local.write(0, bytes(local.size))

    def recover():
        t0 = sim.now
        n = yield from mirror.recover(from_replica=1)
        ms = (sim.now - t0) / 1e6
        print(f"  recovered {n >> 20} MiB in {ms:.2f} ms "
              f"({n / (sim.now - t0):.2f} GB/s)")

    sim.run(until=sim.process(recover()))
    assert local.read(4096 * 7, 7) == fingerprint
    print(f"  state intact after migration: {fingerprint!r}")


if __name__ == "__main__":
    main()
