"""Transactional dataplane (repro.apps.txn): protocol, oracle, tenancy.

Covers the one-sided OCC client end to end (commit visibility,
read-your-writes, conflict aborts, lock hygiene), the RPC baseline, the
per-tenant transaction SLO metrics, and the serializability oracle —
including the reverted-bug direction: a commit path that skips read
validation MUST be caught.
"""

from __future__ import annotations

import pytest

from repro import build
from repro.apps.txn import (INITIAL_VERSION, LOCK_BIT, RpcTxnServer,
                            Transaction, TxnClient, TxnConfig, TxnStore,
                            is_locked, locked_word, owner_of, version_of)
from repro.check import Sanitizer
from repro.check.oracles import TxnOracle
from repro.check.testing import with_checkers
from repro.sim import spawn_rngs
from repro.workloads.zipf import ZipfGenerator

VALUE = b"hello-txn"


# ------------------------------------------------------------- word layout
def test_version_word_encoding_roundtrip():
    word = locked_word(1234, owner=77)
    assert is_locked(word)
    assert version_of(word) == 1234
    assert owner_of(word) == 77
    assert not is_locked(1234)
    assert version_of(1234) == 1234
    with pytest.raises(ValueError):
        locked_word(1 << 48, owner=0)      # version field overflow
    assert LOCK_BIT == 1 << 63


def _rig(machines=3, n_keys=32, n_clients=2, **cfg):
    sim, cluster, ctx = build(machines=machines)
    store = TxnStore(ctx, machine=0, n_keys=n_keys)
    rngs = spawn_rngs(42, n_clients)
    clients = [
        TxnClient(ctx, store, machine=1 + i % (machines - 1), client_id=i,
                  name=f"c{i}", rng=rngs[i],
                  config=TxnConfig(**cfg) if cfg else None)
        for i in range(n_clients)
    ]
    return sim, ctx, store, clients


# ---------------------------------------------------------------- protocol
def test_commit_is_visible_and_versions_advance():
    sim, ctx, store, (c, _) = _rig()

    def txn():
        def body(t):
            yield from c.read(t, 5)
            c.write(t, 5, VALUE)
        res = yield from c.execute(body)
        assert res.committed and res.attempts == 1

    sim.run(until=sim.process(txn()))
    word, value = store.peek(5)
    assert word == INITIAL_VERSION + 1
    assert value.rstrip(b"\x00") == VALUE
    assert c.commits == 1 and c.aborts == 0


def test_read_your_writes_and_repeatable_reads():
    sim, ctx, store, (c, _) = _rig()
    seen = {}

    def txn():
        def body(t):
            seen["before"] = yield from c.read(t, 3)
            c.write(t, 3, VALUE)
            seen["after"] = yield from c.read(t, 3)     # own write
            seen["again"] = yield from c.read(t, 3)
            seen["other"] = yield from c.read(t, 4)     # cached version
            seen["other2"] = yield from c.read(t, 4)
            assert t.reads[4] == INITIAL_VERSION
        yield from c.execute(body)

    sim.run(until=sim.process(txn()))
    assert seen["before"].rstrip(b"\x00") == b""
    assert seen["after"] == VALUE == seen["again"]
    assert seen["other"] == seen["other2"]


def test_blind_write_commits_without_prior_read():
    sim, ctx, store, (c, _) = _rig()

    def txn():
        def body(t):
            c.write(t, 9, VALUE)
            return
            yield
        res = yield from c.execute(body)
        assert res.committed

    sim.run(until=sim.process(txn()))
    word, value = store.peek(9)
    assert word == INITIAL_VERSION + 1
    assert value.rstrip(b"\x00") == VALUE


def test_write_validates_key_range_and_value_size():
    sim, ctx, store, (c, _) = _rig()
    t = Transaction("t")
    with pytest.raises(ValueError):
        c.write(t, store.n_keys, VALUE)
    with pytest.raises(ValueError):
        c.write(t, 0, b"x" * 49)
    with pytest.raises(ValueError):
        TxnClient(ctx, store, machine=0)    # client on the memory node


def test_conflicting_writers_abort_and_retry_without_leaking_locks():
    sim, ctx, store, clients = _rig(n_clients=3, n_keys=4)

    def driver(c):
        for t_i in range(8):
            def body(t):
                for k in range(4):
                    yield from c.read(t, k)
                c.write(t, 0, f"{c.name}.{t_i}".encode())
                c.write(t, 1, f"{c.name}.{t_i}".encode())
            res = yield from c.execute(body)
            assert res.committed

    for c in clients:
        sim.process(driver(c))
    sim.run()
    assert sum(c.commits for c in clients) == 24
    assert sum(c.aborts for c in clients) > 0       # real contention
    assert sum(c.gave_up for c in clients) == 0
    for k in range(store.n_keys):
        assert not is_locked(store.peek_word(k))    # no leaked locks
    # keys 0 and 1 each took exactly 24 committed writes
    assert version_of(store.peek_word(0)) == INITIAL_VERSION + 24
    assert version_of(store.peek_word(1)) == INITIAL_VERSION + 24


def test_write_skew_is_prevented_when_validation_is_on():
    """Crossing read/write sets: at most one of the two txns commits on
    its first attempt; both eventually commit serially."""
    sim, ctx, store, clients = _rig(n_clients=2, n_keys=4)
    results = []

    def skew(c, rk, wk):
        def body(t):
            yield from c.read(t, rk)
            c.write(t, wk, c.name.encode())
        res = yield from c.execute(body)
        results.append(res)

    sim.process(skew(clients[0], 0, 1))
    sim.process(skew(clients[1], 1, 0))
    sim.run()
    assert all(r.committed for r in results)
    # Serializability: the later committer must have observed the other's
    # write — so at least one retried (first attempt aborted).
    assert sum(r.attempts for r in results) >= 3


def test_give_up_after_max_attempts_under_persistent_conflict():
    sim, ctx, store, (c, other) = _rig(n_clients=2, max_attempts=2)

    # Adversary: bump key 0's version right before c validates, forever.
    def adversary():
        while True:
            def body(t):
                c2 = other
                yield from c2.read(t, 0)
                c2.write(t, 0, b"bump")
            yield from other.execute(body)

    def victim():
        def body(t):
            yield from c.read(t, 0)     # read-only: must validate
            c.write(t, 1, b"v")
        res = yield from c.execute(body)
        assert not res.committed
        assert res.attempts == 2

    adv = sim.process(adversary())
    sim.run(until=sim.process(victim()))
    assert c.gave_up == 1
    assert not is_locked(store.peek_word(0))
    assert not is_locked(store.peek_word(1))


@pytest.mark.parametrize("reason", ["read-locked", "write-locked"])
def test_read_of_an_entry_locked_past_its_budget_aborts(monkeypatch, reason):
    """A read of a locked key, or a blind write's version read at commit,
    polls the word past its budget and aborts."""
    sim, ctx, store, (c, _) = _rig(read_lock_budget=2, max_attempts=1)
    # A committer that never releases: key 3's LOCK bit stays set.
    mr, off = store.version_location(3)
    mr.write_u64(off, locked_word(INITIAL_VERSION, owner=9))
    reasons = []
    abort = c._abort
    monkeypatch.setattr(c, "_abort", lambda txn, reason: (
        reasons.append(reason), abort(txn, reason)))

    def txn():
        def body(t):
            if reason == "read-locked":
                yield from c.read(t, 3)
            else:
                c.write(t, 3, VALUE)
                yield from ()
        return (yield from c.execute(body))

    res = sim.run(until=sim.process(txn()))
    assert not res.committed and res.attempts == 1
    assert reasons == [reason]
    assert (c.aborts, c.gave_up, c.commits) == (1, 1, 0)
    assert c.lock_waits == 3  # one poll past the budget of 2


# ------------------------------------------------------------ rpc baseline
def test_rpc_baseline_serializes_and_never_aborts():
    sim, cluster, ctx = build(machines=3)
    table = RpcTxnServer(ctx, machine=0, n_servers=2)
    clients = [table.connect(1 + i % 2) for i in range(3)]

    def driver(c, i):
        for t in range(6):
            reads = yield from c.txn([0, 1], [(0, f"c{i}.{t}".encode())])
            assert set(reads) == {0, 1}

    import repro.sim as _  # noqa: F401
    from repro.sim import AllOf
    procs = [sim.process(driver(c, i)) for i, c in enumerate(clients)]
    sim.run(until=AllOf(sim, procs))
    table.stop()
    assert sum(c.commits for c in clients) == 18
    version, value = table.peek(0)
    assert version == INITIAL_VERSION + 18      # every txn wrote key 0
    assert table.txns_served == 18


# ----------------------------------------------------------------- tenancy
def test_tenant_txn_slo_metrics_and_checker_monotonicity():
    from repro.tenancy.metrics import SLOMetrics

    sim, cluster, ctx = build(machines=3)
    san = Sanitizer(sim)
    store = TxnStore(ctx, machine=0, n_keys=16)
    metrics = SLOMetrics(sim, ["gold"])
    c = TxnClient(ctx, store, machine=1, metrics=metrics, tenant="gold")

    def txn():
        def body(t):
            yield from c.read(t, 0)
            c.write(t, 0, VALUE)
        yield from c.execute(body)

    sim.run(until=sim.process(txn()))
    snap = metrics.snapshot()["gold"]
    assert snap["txn_commits"] == 1 and snap["txn_aborts"] == 0
    assert snap["txn_abort_rate"] == 0.0
    assert snap["commit_p99_us"] > 0.0
    slo = metrics["gold"]
    assert slo.txn_abort_rate == 0.0
    metrics.record_txn("gold", False)
    assert metrics["gold"].txn_abort_rate == 0.5
    assert san.finalize().ok        # TenancyChecker saw monotone counters


# ------------------------------------------------------- oracle: clean path
@with_checkers
def test_contended_soak_is_clean_under_all_checkers(checkers):
    """Zipf-0.99 storm: every checker on, zero violations."""
    sim, cluster, ctx = build(machines=4)
    checkers.install(sim)
    store = TxnStore(ctx, machine=0, n_keys=48)
    rngs = spawn_rngs(7, 3)
    clients = [TxnClient(ctx, store, machine=1 + i, client_id=i,
                         name=f"c{i}", rng=rngs[i],
                         config=TxnConfig(max_attempts=64))
               for i in range(3)]

    def driver(c, rng):
        zipf = ZipfGenerator(store.n_keys, 0.99, rng)
        for t_i in range(15):
            keys = set()
            while len(keys) < 4:
                keys.add(zipf.one())
            ordered = sorted(keys)

            def body(t):
                for k in ordered:
                    yield from c.read(t, k)
                for k in ordered[:2]:
                    c.write(t, k, f"{c.name}.{t_i}".encode())
            yield from c.execute(body)

    for c, rng in zip(clients, rngs):
        sim.process(driver(c, rng))
    sim.run()
    assert sum(c.commits for c in clients) == 45
    assert sum(c.aborts for c in clients) > 0


# --------------------------------------------------- oracle: seeded bugs
def _skipping_validate(c):
    """The seeded bug: commit never re-checks read-only keys."""
    def _validate(txn, key):
        return True
        yield
    return _validate


def test_oracle_catches_commit_that_skips_validation():
    """Reverted-bug direction: monkeypatch validation away, drive write
    skew, and the txn checker must report a serialization cycle."""
    sim, cluster, ctx = build(machines=3)
    san = Sanitizer(sim)
    store = TxnStore(ctx, machine=0, n_keys=4)
    clients = [TxnClient(ctx, store, machine=1 + i, client_id=i,
                         name=f"c{i}") for i in range(2)]
    for c in clients:
        c._validate = _skipping_validate(c)

    def skew(c, rk, wk):
        def body(t):
            yield from c.read(t, rk)
            c.write(t, wk, b"skew")
        yield from c.execute(body)

    sim.process(skew(clients[0], 0, 1))
    sim.process(skew(clients[1], 1, 0))
    sim.run()
    report = san.finalize()
    assert sum(c.commits for c in clients) == 2     # both "committed"
    txn_violations = [v for v in report.violations if v.checker == "txn"]
    assert txn_violations, "skipped validation must be caught"
    assert any("cycle" in v.message for v in txn_violations)


def test_oracle_catches_lost_update_via_direct_hooks():
    """Unit-level: two commits against the same base version == lost
    update; a version skip is also flagged."""
    class Recorder:
        def __init__(self):
            self.violations = []

        def record(self, checker, where, stage, message):
            self.violations.append((checker, where, stage, message))

    rec = Recorder()
    oracle = TxnOracle(rec)
    oracle.on_begin(None, "A")
    oracle.on_commit(None, "A", {}, {0: (INITIAL_VERSION,
                                         INITIAL_VERSION + 1)})
    oracle.on_begin(None, "B")
    oracle.on_commit(None, "B", {}, {0: (INITIAL_VERSION,
                                         INITIAL_VERSION + 1)})
    oracle.on_begin(None, "C")
    oracle.on_commit(None, "C", {}, {1: (INITIAL_VERSION,
                                         INITIAL_VERSION + 5)})
    oracle.finalize()
    messages = [m for _, _, _, m in rec.violations]
    assert any("lost update" in m for m in messages)
    assert any("must advance by exactly 1" in m for m in messages)


def test_oracle_lifecycle_violations():
    class Recorder:
        def __init__(self):
            self.violations = []

        def record(self, checker, where, stage, message):
            self.violations.append(message)

    rec = Recorder()
    oracle = TxnOracle(rec)
    oracle.on_begin(None, "A")
    oracle.on_begin(None, "A")                       # duplicate begin
    oracle.on_commit(None, "A", {}, {})
    oracle.on_abort(None, "A", "late")               # abort after commit
    oracle.on_read(None, "Z", 0, 1)                  # never begun
    oracle.on_read(None, "A", 0, LOCK_BIT | 3)       # torn (locked) read,
    assert len(rec.violations) == 5                  # + read-after-abort


def test_check_runner_txn_scenario_is_clean():
    from repro.check.runner import run_scenario
    report = run_scenario("txn")
    assert report.ok, report.render()
