"""Property tests for the invariant sanitizer (repro.check).

Three layers:

* clean runs — chaos-grade workloads under every checker produce zero
  violations (via ``@with_checkers``);
* bug resurrection — each satellite bug this PR fixed is monkeypatched
  back in (hooks kept: hooks are infrastructure, the bug is policy) and
  the matching checker must catch it;
* checker units — synthetic hook streams hit each violation branch, and
  enabling a sanitizer is schedule-neutral (bit-identical dispatch).
"""

import io
import pathlib
import re
from types import SimpleNamespace

import pytest

import repro
from repro import build
from repro.check import (
    CHECKER_NAMES,
    HOOKS,
    CheckViolationError,
    Sanitizer,
    differential,
    with_checkers,
)
from repro.core import IoConsolidator, RemoteSequencer, RemoteSpinLock, RpcSpinLock
from repro.core.rpc import RpcServer
from repro.hw import FaultInjector, HardwareParams
from repro.sim import make_rng
from repro.verbs import (
    Completion,
    CompletionStatus,
    Opcode,
    QPState,
    Sge,
    Worker,
    WorkRequest,
)
from tests.lane_wakes import lane_wakes


# ------------------------------------------------------------- clean chaos

def _chaos_lock_seq_rig(sim, cluster, ctx, n_clients=3, iters=16):
    """Spinlock + sequencer clients under seeded loss windows."""
    lock_mr = ctx.register(0, 4096)
    counter_mr = ctx.register(0, 4096)
    injector = FaultInjector(sim, rng=make_rng(77))
    in_cs, max_in_cs = [0], [0]
    locks, seqs, values = [], [], []

    def client(i):
        m = i + 1
        w = Worker(ctx, m, name=f"c{m}")
        lk = RemoteSpinLock(w, ctx.create_qp(m, 0), ctx.register(m, 4096),
                            lock_mr)
        sq = RemoteSequencer(w, ctx.create_qp(m, 0), counter_mr)
        locks.append(lk)
        seqs.append(sq)
        for k in range(iters):
            yield from lk.acquire()
            in_cs[0] += 1
            max_in_cs[0] = max(max_in_cs[0], in_cs[0])
            yield sim.timeout(150)
            in_cs[0] -= 1
            yield from lk.release()
            values.append((yield from sq.next(n=1 + k % 3)))

    for i in range(n_clients):
        port = cluster[i + 1].port(0)
        for k in range(3):
            sim.timeout(15_000.0 + 120_000.0 * i + 400_000.0 * k
                        ).add_callback(
                lambda _e, p=port: injector.drop_port(
                    p, prob=0.9, duration_ns=100_000.0))
    procs = [sim.process(client(i)) for i in range(n_clients)]
    for p in procs:
        sim.run(until=p)
    sim.run()
    return max_in_cs[0], locks, seqs, values


@with_checkers(strict_overlap=True)
def test_chaos_locks_and_sequencers_zero_violations(checkers):
    sim, cluster, ctx = build(machines=4,
                              params=HardwareParams(retry_cnt=2))
    checkers.install(sim)
    max_in_cs, locks, seqs, values = _chaos_lock_seq_rig(sim, cluster, ctx)
    assert max_in_cs == 1
    assert all(isinstance(v, int) for v in values)
    # The fault schedule must actually bite or this test checks nothing.
    assert any(lk.transport_errors for lk in locks) \
        or any(sq.transport_errors for sq in seqs)


@with_checkers(strict_overlap=True)
def test_consolidator_clean_under_checkers(checkers):
    sim, cluster, ctx = build(machines=2)
    checkers.install(sim)
    staging = ctx.register(0, 8 * 1024)
    remote = ctx.register(1, 64 * 1024)
    cons = IoConsolidator(Worker(ctx, 0), ctx.create_qp(0, 1), staging,
                          remote, block_bytes=1024, theta=4)

    def client():
        for r in range(12):
            for b in range(8):
                for k in range(4):
                    yield from cons.write(b * 1024 + 32 * k, b"z" * 32)
        yield from cons.flush_all()

    sim.run(until=sim.process(client()))
    sim.run()
    assert cons.flushes == 12 * 8
    assert cons._blocks == {}


@with_checkers
def test_rpc_lock_clean_under_checkers(checkers):
    sim, cluster, ctx = build(machines=3)
    checkers.install(sim)
    server = RpcSpinLock.make_server(ctx, machine=0, fair=True)
    clients = [RpcSpinLock(server.connect(m), Worker(ctx, m))
               for m in (1, 2)]

    def client(lk):
        for _ in range(5):
            yield from lk.acquire()
            yield sim.timeout(300)
            yield from lk.release()

    procs = [sim.process(client(lk)) for lk in clients]
    for p in procs:
        sim.run(until=p)
    server.stop()
    sim.run()
    assert sum(lk.acquisitions for lk in clients) == 10


@with_checkers
def test_tenancy_plane_clean_under_checkers(checkers):
    from repro.tenancy import ServiceConfig, ServicePlane, TenantSpec

    sim, cluster, ctx = build(machines=3)
    checkers.install(sim)
    plane = ServicePlane(ctx, ServiceConfig(
        tenants=(TenantSpec("gold", weight=2.0, rate_mops=2.0),
                 TenantSpec("lead", rate_mops=0.5))))
    mrs = {m: ctx.register(m, 4096) for m in range(3)}

    def client(tenant, machine):
        session = plane.session(tenant, machine)
        for k in range(40):
            yield from session.write(
                0, src=mrs[machine][0:64], dst=mrs[0][0:64],
                move_data=False)

    procs = [sim.process(client("gold", 1)), sim.process(client("lead", 2))]
    for p in procs:
        sim.run(until=p)
    sim.run()
    snap = plane.metrics.snapshot()
    assert snap["gold"]["ops"] == snap["lead"]["ops"] == 40


# -------------------------------------------------------- bug resurrection
# Each reverted bug keeps its oracle hooks: the hooks are sanitizer
# infrastructure, the bug is the policy around them.

def test_checker_catches_reverted_sequencer_bug():
    """Old RemoteSequencer.next ignored comp.ok → a None 'value' leaks."""

    def buggy_next(self, n=1):
        comp = yield from self.worker.faa(
            self.qp, self.counter_mr, self.counter_offset, add=n)
        self.issued += 1
        check = self.worker.sim.check
        if check is not None:
            check.on_sequence((self.counter_mr.mr_id, self.counter_offset),
                              comp.value, n, self.worker.name)
        return comp.value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RemoteSequencer, "next", buggy_next)
        sim, cluster, ctx = build(machines=2,
                                  params=HardwareParams(retry_cnt=2))
        san = Sanitizer(sim)
        counter_mr = ctx.register(0, 4096)
        w = Worker(ctx, 1)
        qp = ctx.create_qp(1, 0)
        seq = RemoteSequencer(w, qp, counter_mr)
        FaultInjector(sim).port_down(qp.local_port)
        out = []

        def client():
            for _ in range(3):
                out.append((yield from seq.next(n=2)))

        sim.run(until=sim.process(client()))
        sim.run()
        report = san.finalize()
    assert None in out                       # the bug's visible symptom
    assert report.counts["sequencer"] >= 1
    assert any("errored completion" in v.message
               for v in report.violations if v.checker == "sequencer")


def test_checker_catches_reverted_lock_release_bug():
    """Old release(): always-unsignaled write → lost unlock, deadlock."""

    def buggy_release(self):
        check = self.worker.sim.check
        if check is not None:
            check.on_lock_release_start(self)
        wr = WorkRequest(Opcode.WRITE, sgl=[Sge(self.scratch_mr, 0, 8)],
                         remote_mr=self.lock_mr,
                         remote_offset=self.lock_offset, signaled=False)
        yield from self.worker.post(self.qp, wr)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RemoteSpinLock, "release", buggy_release)
        sim, cluster, ctx = build(machines=2,
                                  params=HardwareParams(retry_cnt=2))
        san = Sanitizer(sim)
        lock_mr = ctx.register(0, 4096)
        w = Worker(ctx, 1)
        qp = ctx.create_qp(1, 0)
        lk = RemoteSpinLock(w, qp, ctx.register(1, 4096), lock_mr)
        injector = FaultInjector(sim)

        def client():
            yield from lk.acquire()
            injector.blackhole_port(qp.local_port, duration_ns=500_000)
            yield sim.timeout(1_000)
            yield from lk.release()          # silently lost

        sim.run(until=sim.process(client()))
        sim.run()
        report = san.finalize()
    assert lock_mr.read_u64(0) == RemoteSpinLock.LOCKED   # still locked!
    assert report.counts["locks"] >= 1
    assert any("lost unlock" in v.message
               for v in report.violations if v.checker == "locks")


def test_checker_catches_reverted_consolidator_bug():
    """Old flush_block never pruned clean _Block entries."""

    def buggy_flush_block(self, block_index):
        if not 0 <= block_index < self.n_blocks:
            raise IndexError(f"no block {block_index}")
        block = self._blocks.get(block_index)
        if block is None or block.pending == 0:
            return None
        block.pending = 0
        block.dirty_since = None
        offset = block_index * self.block_bytes
        wr = WorkRequest(
            Opcode.WRITE,
            sgl=[Sge(self.staging_mr, offset, self.block_bytes)],
            remote_mr=self.remote_mr,
            remote_offset=self.remote_base + offset,
            move_data=self.move_data)
        comp = yield from self.worker.execute(self.qp, wr)
        self.flushes += 1
        check = self.worker.sim.check
        if check is not None:
            check.on_consolidator_flush(self)
        return comp

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IoConsolidator, "flush_block", buggy_flush_block)
        sim, cluster, ctx = build(machines=2)
        san = Sanitizer(sim)
        staging = ctx.register(0, 128 * 1024)        # 128 blocks
        remote = ctx.register(1, 128 * 1024)
        cons = IoConsolidator(Worker(ctx, 0), ctx.create_qp(0, 1),
                              staging, remote, block_bytes=1024, theta=1)

        def client():
            for b in range(128):                     # every write flushes
                yield from cons.write(b * 1024, b"q" * 32)

        sim.run(until=sim.process(client()))
        sim.run()
        assert len(cons._blocks) == 128              # the leak itself
        report = san.finalize()
    assert report.counts["consolidation"] >= 1
    assert any("growth" in v.message or "prune" in v.message
               for v in report.violations
               if v.checker == "consolidation")


def test_checker_catches_reverted_rpc_lock_bug():
    """Old lock server freed the lock on an unlock from anyone."""

    @staticmethod
    def buggy_make_server(ctx, machine, socket=0, fair=False):
        server = RpcServer(ctx, machine, socket,
                           name=f"lockserver.m{machine}")
        state = {"free": True, "holder": None}
        key = ("rpc-lock", server.name)

        def handler(body, request):
            check = ctx.sim.check
            if body == "lock":
                if state["free"]:
                    state["free"] = False
                    state["holder"] = request.reply_qp.qp_id
                    if check is not None:
                        check.on_rpc_lock_granted(key, state["holder"])
                    return "granted"
                return "busy"
            if body == "unlock":                     # no holder check!
                if check is not None:
                    check.on_rpc_lock_released(
                        key, request.reply_qp.qp_id, state["holder"],
                        accepted=True)
                state["free"] = True
                state["holder"] = None
                return "ok"
            raise ValueError(f"unknown lock op: {body!r}")

        server.start(handler)
        return server

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RpcSpinLock, "make_server", buggy_make_server)
        sim, cluster, ctx = build(machines=3)
        san = Sanitizer(sim)
        server = RpcSpinLock.make_server(ctx, machine=0)
        c1 = RpcSpinLock(server.connect(1), Worker(ctx, 1))
        c2 = RpcSpinLock(server.connect(2), Worker(ctx, 2))

        def run():
            yield from c1.acquire()
            yield from c2.release()      # accepted although c2 never held it
            yield from c2.acquire()      # "works": exclusion is broken
            yield from c2.release()
            yield from c1.release()

        sim.run(until=sim.process(run()))
        server.stop()
        sim.run()
        report = san.finalize()
    assert report.counts["locks"] >= 1
    assert any("non-holder" in v.message
               for v in report.violations if v.checker == "locks")


# ----------------------------------------------------------- checker units

def test_conservation_flags_duplicate_completion():
    sim, cluster, ctx = build(machines=2)
    san = Sanitizer(sim, checkers=("conservation",))
    qp = ctx.create_qp(0, 1)
    mr = ctx.register(0, 4096)
    wr = WorkRequest(Opcode.WRITE, sgl=[Sge(mr, 0, 8)], remote_mr=mr,
                     remote_offset=0)
    comp = Completion(wr_id=0, opcode=Opcode.WRITE,
                      status=CompletionStatus.SUCCESS, timestamp_ns=0.0)
    san.on_completed(qp, wr, comp)       # never posted
    report = san.finalize()
    assert report.counts["conservation"] == 1
    assert "without a matching post" in report.violations[0].message


def test_conservation_audits_destroyed_qps():
    sim, cluster, ctx = build(machines=2)
    san = Sanitizer(sim, checkers=("conservation",))
    lmr = ctx.register(0, 4096)
    rmr = ctx.register(1, 4096)
    drained, busy = ctx.create_qp(0, 1), ctx.create_qp(0, 1)
    wr = WorkRequest(Opcode.WRITE, sgl=[Sge(lmr, 0, 8)], remote_mr=rmr,
                     remote_offset=0, move_data=False)
    sim.run(until=drained.post_send(wr))
    ctx.destroy_qp(drained)              # drained: a clean teardown
    assert san.finalize().counts.get("conservation", 0) == 0
    busy.post_send(wr)                   # destroy_qp refuses this one,
    san.on_qp_destroyed(busy)            # so feed the hook directly
    report = san.finalize()
    assert report.counts["conservation"] == 1
    assert "destroyed with 1 WRs outstanding" in report.violations[0].message


def test_qp_state_flags_illegal_transition():
    sim, cluster, ctx = build(machines=2)
    san = Sanitizer(sim, checkers=("qp_state",))
    qp = ctx.create_qp(0, 1)
    san.on_qp_state(qp, QPState.RTS, QPState.RESET)
    report = san.finalize()
    assert any("illegal transition" in v.message
               for v in report.violations)


def test_overlap_flags_foreign_write_into_claimed_window():
    sim, cluster, ctx = build(machines=3)
    san = Sanitizer(sim, checkers=("overlap",))
    mr = ctx.register(0, 4096)
    owner_qp = ctx.create_qp(1, 0)
    intruder_qp = ctx.create_qp(2, 0)
    src = ctx.register(2, 4096)
    san.overlap.claim(mr, 0, 1024, owner_qp, "unit-owner")
    wr = WorkRequest(Opcode.WRITE, sgl=[Sge(src, 0, 64)], remote_mr=mr,
                     remote_offset=512)
    san.on_posted(intruder_qp, wr)
    report = san.finalize()
    assert report.counts["overlap"] == 1
    assert "single-writer" in report.violations[0].message


def test_strict_overlap_flags_concurrent_foreign_writes():
    sim, cluster, ctx = build(machines=3)
    san = Sanitizer(sim, checkers=("overlap",), strict_overlap=True)
    mr = ctx.register(0, 4096)
    qp_a = ctx.create_qp(1, 0)
    qp_b = ctx.create_qp(2, 0)
    src = ctx.register(1, 4096)
    wr_a = WorkRequest(Opcode.WRITE, sgl=[Sge(src, 0, 64)], remote_mr=mr,
                       remote_offset=0)
    wr_b = WorkRequest(Opcode.WRITE, sgl=[Sge(src, 64, 64)], remote_mr=mr,
                       remote_offset=32)
    san.on_posted(qp_a, wr_a)            # in flight...
    san.on_posted(qp_b, wr_b)            # ...and overlapping from B
    report = san.finalize()
    assert report.counts["overlap"] == 1
    assert "races" in report.violations[0].message


def test_tenancy_flags_negative_bucket_and_backwards_slo():
    class Bucket:
        tokens = -0.5

    class Slo:
        ops = 5
        bytes = 100
        errored = 0
        rejected = 0
        retries = 0

    sim, cluster, ctx = build(machines=1)
    san = Sanitizer(sim, checkers=("tenancy",))
    san.on_bucket_consume("t", Bucket())
    slo = Slo()
    san.on_slo_record("t", slo)
    slo.ops = 4                          # counter moved backwards
    san.on_slo_record("t", slo)
    report = san.finalize()
    assert report.counts["tenancy"] == 2


# ------------------------------------------------------- sanitizer plumbing

def test_sanitizer_rejects_unknown_checker_and_double_install():
    sim, cluster, ctx = build(machines=1)
    with pytest.raises(ValueError, match="unknown checkers"):
        Sanitizer(sim, checkers=("conservation", "vibes"))
    san = Sanitizer(sim)
    with pytest.raises(RuntimeError, match="already has a sanitizer"):
        Sanitizer(sim)
    assert san.finalize().ok
    assert sim.check is None             # finalize uninstalls
    Sanitizer(sim)                       # and the slot is reusable


def test_checker_subset_only_instantiates_requested():
    sim, cluster, ctx = build(machines=1)
    san = Sanitizer(sim, checkers=("locks",))
    assert san.locks is not None
    for name in CHECKER_NAMES:
        if name != "locks":
            assert getattr(san, name) is None
    san.finalize()


_HOOK_CALL = re.compile(r"""\b(?:check|chk)\.(\w+)\(|_hook\("(\w+)\"""")


def test_every_hook_has_a_call_site_and_every_call_names_a_hook():
    root = pathlib.Path(repro.__file__).parent
    called = set()
    for path in root.rglob("*.py"):
        if path == root / "check" / "sanitizer.py":
            continue
        for m in _HOOK_CALL.finditer(path.read_text()):
            called.add(m.group(1) or m.group(2))
    assert called - HOOKS == set(), "calls that name no hook"
    assert HOOKS - called == set(), "hooks that no site calls"


def test_completions_only_sanitizer_answers_every_hook():
    sim, cluster, ctx = build(machines=1)
    san = Sanitizer(sim, checkers=("completions",))
    for hook in sorted(HOOKS - {"on_completed"}):
        getattr(san, hook)(None, None, None, None, None)
    assert san.completions.count == 0
    assert san.finalize().total == 0


def test_on_completed_fans_out_in_checker_order(monkeypatch):
    from repro.check import checkers, oracles
    order = []
    for cls in (checkers.ConservationChecker, checkers.OverlapChecker,
                oracles.LockOracle, checkers.CompletionsChecker):
        def spy(self, qp, wr, comp, _orig=cls.on_completed):
            order.append(self.name)
            _orig(self, qp, wr, comp)
        monkeypatch.setattr(cls, "on_completed", spy)
    sim, cluster, ctx = build(machines=2)
    san = Sanitizer(sim)
    lmr, rmr = ctx.register(0, 4096), ctx.register(1, 4096)
    qp = ctx.create_qp(0, 1)
    wr = WorkRequest(Opcode.WRITE, sgl=[Sge(lmr, 0, 8)], remote_mr=rmr,
                     remote_offset=0, move_data=False)
    sim.run(until=qp.post_send(wr))
    assert order == ["conservation", "overlap", "locks", "completions"]
    assert san.finalize().ok


def test_with_checkers_raises_on_violation():
    @with_checkers(checkers=("conservation",))
    def inner(checkers):
        sim, cluster, ctx = build(machines=1)
        san = checkers.install(sim)
        san.record("conservation", "unit", "test", "synthetic violation")

    with pytest.raises(CheckViolationError, match="synthetic violation"):
        inner()


def test_report_render_and_cap():
    sim, cluster, ctx = build(machines=1)
    san = Sanitizer(sim)
    for k in range(1100):
        san.record("conservation", f"qp{k}", "unit", f"violation {k}")
    report = san.finalize()
    assert report.total == 1100          # exact count survives the cap
    assert len(report.violations) == 1000
    assert report.dropped == 100
    text = report.render()
    assert "violation 0" in text and "conservation" in text


# --------------------------------------------------------------- neutrality

@pytest.mark.parametrize("express", [False, True], ids=["stepped", "express"])
def test_sanitizer_is_schedule_neutral(express):
    """The exact dispatch timeline is bit-identical with checkers on, on
    the stepped pipeline and on the express lane."""
    def timeline(with_sanitizer):
        sim, cluster, ctx = differential.run(lambda: build(
            machines=4, params=HardwareParams(retry_cnt=2)), express).value
        events = []
        sim.trace_dispatch = lambda when, prio, seq: \
            events.append((when, prio, seq))
        san = Sanitizer(sim, strict_overlap=True) if with_sanitizer else None
        max_in_cs, locks, seqs, values = _chaos_lock_seq_rig(
            sim, cluster, ctx, iters=8)
        if san is not None:
            assert san.finalize().ok
        return events, values

    base_events, base_values = timeline(False)
    san_events, san_values = timeline(True)
    assert base_values == san_values
    assert base_events == san_events
    # The comparison has teeth: the lane fuses several stepped events
    # into one wake (897 dispatches against the stepped lane's > 1000).
    assert len(base_events) > (800 if express else 1000)


# ------------------------------------------------------ lane differential

def test_completions_digest_counts_every_completion_and_ignores_qp_ids():
    """The digest folds each completion under its QP's first-seen index,
    so two runs that number their QPs differently agree."""

    def digest(qp_ids):
        sim, cluster, ctx = build(machines=2)
        san = Sanitizer(sim, checkers=("completions",))
        for k, qp_id in enumerate(qp_ids):
            comp = Completion(wr_id=k, opcode=Opcode.WRITE,
                              status=CompletionStatus.SUCCESS,
                              timestamp_ns=100.0 * k, byte_len=8)
            san.on_completed(SimpleNamespace(qp_id=qp_id), None, comp)
        report = san.finalize()
        assert report.ok
        return san.completions.digest, san.completions.count

    assert digest([7, 9, 7]) == digest([1, 2, 1])
    assert digest([7, 9, 7])[1] == 3
    assert digest([7, 9, 7]) != digest([7, 9, 9])


def _overlap_defect() -> Sanitizer:
    """Two QPs WRITE one remote range at the same instant: a race that
    strict overlap reports."""
    sim, cluster, ctx = build(machines=3)
    san = Sanitizer(sim, strict_overlap=True)
    dst = ctx.register(0, 4096)

    def writer(m):
        w = Worker(ctx, m)
        qp = ctx.create_qp(m, 0)
        src = ctx.register(m, 4096)
        yield from w.write(qp, src=src[0:64], dst=dst[0:64])

    for m in (1, 2):
        sim.process(writer(m))
    sim.run()
    return san


def test_overlap_defect_is_reported_identically_on_both_lanes():
    stepped = differential.run(_overlap_defect, express=False)
    express = differential.run(_overlap_defect, express=True)
    assert (stepped.stepped, express.express) == (2, 2)
    report = stepped.value.finalize()
    assert report.counts == {"overlap": 1}
    assert express.value.finalize().violations == report.violations
    assert differential.compare(_overlap_defect, stepped, express) is None


def test_a_lane_defect_no_checker_sees_fails_the_differential(monkeypatch):
    """Seeded mutation: the lane reports every completion with
    ``retries=0``.  Each lane is clean under every checker; only the
    completion digests differ, and the printed first divergence is a
    completion whose rows differ in ``retries`` alone."""
    from repro.check.runner import run_scenario
    from repro.verbs import express

    monkeypatch.setattr(express, "Completion",
                        lambda **kw: Completion(**{**kw, "retries": 0}))
    out = io.StringIO()
    report = run_scenario("chaos", out=out)
    assert [v.checker for v in report.violations] == ["lanes"]
    assert "completion digests differ" in report.violations[0].message
    assert "first divergence: simulator 0, completion #" in out.getvalue()
    stepped, lane = (dict(f.split("=", 1) for f in row.split()) for row in
                     re.findall(r"(?:stepped|express): (qp=.*)", out.getvalue()))
    assert {k for k in stepped if stepped[k] != lane[k]} == {"retries"}
    assert lane["retries"] == "0" != stepped["retries"]


def test_a_same_instant_completion_swap_only_the_digest_sees(monkeypatch):
    """Seeded mutation: on the lane, an op parked behind its predecessor
    (RC in-order completion) completes just before it instead of just
    after, at the same instant on the same CQ.  The hashtable point
    (ext1's "reorder" front-ends, all writes: many WRs in flight per QP)
    renders the same throughput under the swap; only the completion
    digest differs from the stepped lane's, and the first divergence is
    two rows of one QP at one timestamp."""
    from repro.bench import ext1_read_mix
    from repro.verbs.express import ExpressState

    def point():
        return ext1_read_mix.run_point({"config": "reorder", "ratio": 1.0})

    stepped = differential.run(point, express=False)
    parked, swaps = {}, []
    complete = ExpressState._complete

    def parking(op, handler, arg):
        # A woken ``_try_finish`` that does not complete the op parks it.
        if handler == "_try_finish" and op.prev is not None and (
                not op.prev._processed):
            parked[id(op.prev)] = op

    def swapped(self, op, arg):
        successor = parked.pop(id(op.done), None)
        if successor is not None:
            swaps.append(successor)
            complete(self, successor, None)
            wake, = [cb for cb in op.done.callbacks
                     if getattr(cb, "args", None) == (successor,)]
            op.done.discard_callback(wake)
        complete(self, op, arg)

    monkeypatch.setattr(ExpressState, "_complete", swapped)
    with lane_wakes(parking):
        lane = differential.run(point, express=True)
        assert swaps
        assert lane.value == stepped.value
        assert lane.digests != stepped.digests
        divergence = differential.compare(point, stepped, lane)
    rows = [dict(f.split("=", 1) for f in row.split()) for row in
            re.findall(r"(?:stepped|express): (qp=.*)", divergence)]
    assert rows[0] != rows[1]
    assert rows[0]["qp"] == rows[1]["qp"]
    assert rows[0]["timestamp_ns"] == rows[1]["timestamp_ns"]


def _recording_runs(monkeypatch) -> list:
    """Patch :func:`differential.run` to keep every :class:`LaneRun`."""
    runs = []
    run = differential.run
    monkeypatch.setattr(differential, "run", lambda fn, express: (
        runs.append(run(fn, express)), runs[-1])[1])
    return runs


def test_target_mode_is_clean_and_schedule_neutral(monkeypatch):
    """``fig18`` in target mode: clean under every checker (strict
    overlap) on both lanes, no WR stepped on the lane run, and the same
    text on both lanes, hashing to its pin.  So the sanitizer installed
    at construction and the post-run drain move no schedule."""
    import hashlib

    from repro.check.runner import run_scenario
    from tests.test_bench_parallel import TABLE_DIGESTS

    runs = _recording_runs(monkeypatch)
    report = run_scenario("fig18")
    assert report.ok, report.render()
    stepped, lane = runs
    assert (lane.express, lane.stepped) == (stepped.stepped, 0)
    assert lane.express > 0
    assert stepped.value[0] == lane.value[0]
    assert hashlib.sha256(lane.value[0].encode()).hexdigest() \
        == TABLE_DIGESTS["fig18"]


def test_a_lane_defect_no_checker_sees_fails_target_mode(monkeypatch):
    """The seeded ``retries=0`` lane defect fails target mode on ext9
    (tail drops retransmit): one ``lanes`` violation naming the first
    completion whose rows differ."""
    from repro.check.runner import run_scenario
    from repro.verbs import express

    monkeypatch.setattr(express, "Completion",
                        lambda **kw: Completion(**{**kw, "retries": 0}))
    report = run_scenario("ext9_fabric_scale")
    assert [v.checker for v in report.violations] == ["lanes"]
    message = report.violations[0].message
    assert "first divergence: simulator " in message
    stepped, lane = (dict(f.split("=", 1) for f in row.split()) for row in
                     re.findall(r"(?:stepped|express): (qp=.*)", message))
    assert {k for k in stepped if stepped[k] != lane[k]} == {"retries"}


def test_work_left_after_the_drain_is_a_liveness_violation(monkeypatch):
    """A unit that leaves a never-ending process behind reports
    ``liveness`` on both lanes (and nothing else)."""
    from repro.check import runner
    from repro.sim.engine import Simulator

    def ticker():
        sim = Simulator()

        def forever():
            while True:
                yield sim.timeout(100_000.0)

        sim.process(forever())
        sim.run(until=1_000.0)

    monkeypatch.setitem(runner.SCENARIOS, "ticker", ticker)
    report = runner.run_scenario("ticker")
    assert [v.checker for v in report.violations] == ["liveness"]


def test_a_lost_unlock_ends_chaos_with_violations(monkeypatch):
    """Seeded mutation: no WRITE lands.  chaos's release completes but
    leaves its lock word locked, so the other clients spin; the scenario
    horizon stops them, the drain reports the work still pending as
    ``liveness`` and the lock oracle names the lost unlock.  (Without
    the horizon the run never ends.)"""
    from repro.check.runner import run_scenario
    from repro.verbs.qp import QueuePair

    monkeypatch.setattr(QueuePair, "_apply_write", lambda self, wr: None)
    report = run_scenario("chaos")
    assert report.counts["liveness"] == 1
    assert any(v.checker == "locks" and "lost unlock" in v.message
               for v in report.violations)


@pytest.mark.parametrize("name", ["hashtable", "chaos", "txn", "serving"])
def test_check_scenarios_run_on_the_lane(name):
    """Every single-switch ``make check`` scenario books its WRs on the
    express lane: a WR that steps means something turned the lane off
    under the checkers."""
    import functools

    from repro.check.runner import checked

    run = differential.run(functools.partial(checked, name), express=True)
    _, report = run.value
    assert report.ok, report.render()
    assert run.express > 0
    assert run.stepped == 0


def test_fabric_scenario_rides_the_lane_and_equals_the_reference(
        monkeypatch):
    """``make check``'s ``fabric`` scenario (a leaf-spine fabric under
    link faults) runs its 96 WRs on the lane's queued hops, and on the
    stepped reference in the other run.  Both runs are clean under every
    checker and end with equal completion digests."""
    from repro.check.runner import run_scenario
    from repro.verbs.qp import tally

    runs = _recording_runs(monkeypatch)
    before = tally.stepped
    report = run_scenario("fabric")
    assert report.ok and report.total == 0, report.render()
    assert tally.stepped - before == 96
    assert [(r.express, r.stepped) for r in runs] == [(0, 96), (96, 0)]
    assert runs[0].digests == runs[1].digests
    assert len(runs[0].digests) == 1
