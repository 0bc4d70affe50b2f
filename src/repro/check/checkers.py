"""Structural invariant checkers: conservation, QP states, overlap, growth.

Each checker is a plain object owned by one :class:`~repro.check.Sanitizer`
and fed through its ``on_*`` hook methods.  Checkers never create
simulation events, draw randomness, or mutate model state — enabling them
is schedule-neutral by construction (the determinism contract in
docs/CHECKING.md).  A checker reports through ``san.record(...)`` and may
implement ``finalize()`` for end-of-run invariants (call only after the
simulation has drained).
"""

from __future__ import annotations

import hashlib

from repro.verbs.qp import QPState
from repro.verbs.types import CompletionStatus, Opcode

__all__ = ["CacheChecker", "CompletionsChecker", "ConservationChecker",
           "ConsolidationChecker", "FabricChecker", "OverlapChecker",
           "QpStateChecker", "TenancyChecker"]


class _QpBook:
    """Per-QP conservation ledger (tolerates mid-run sanitizer installs)."""

    __slots__ = ("qp", "allowance", "flush_base", "flushes_seen")

    def __init__(self, qp, allowance: int):
        self.qp = qp
        #: Completions allowed to arrive without a tracked post: WRs that
        #: were already in flight when the sanitizer was installed.
        self.allowance = allowance
        self.flush_base = qp.flushed_wrs
        self.flushes_seen = 0


class ConservationChecker:
    """Every posted WR reaches exactly one terminal completion.

    Tracks WRs by identity (a strong reference is held until the terminal
    completion, so ``id`` reuse cannot alias two live WRs) and cross-checks
    the per-QP ``posted``/``completed``/``flushed_wrs`` counters: the
    outstanding count must never go negative, a completion must match a
    post, and flush completions must reconcile with ``qp.flushed_wrs``.
    """

    name = "conservation"

    def __init__(self, san):
        self.san = san
        self._wrs: dict[int, list] = {}      # id(wr) -> [wr, live post count]
        self._qps: dict[int, _QpBook] = {}

    def _book(self, qp, adjust: int = 0) -> _QpBook:
        book = self._qps.get(id(qp))
        if book is None:
            book = self._qps[id(qp)] = _QpBook(qp, qp.outstanding - adjust)
        return book

    def _counters_sane(self, qp, stage: str) -> None:
        if qp.completed > qp.posted:
            self.san.record(
                self.name, f"qp{qp.qp_id}", stage,
                f"outstanding went negative: posted={qp.posted} "
                f"completed={qp.completed}")

    def on_qp_created(self, qp) -> None:
        self._book(qp)

    def on_posted(self, qp, wr) -> None:
        # Called after qp.posted was incremented for this WR.
        self._book(qp, adjust=1)
        self._counters_sane(qp, "post")
        entry = self._wrs.get(id(wr))
        if entry is None:
            self._wrs[id(wr)] = [wr, 1]
        else:
            entry[1] += 1

    def on_completed(self, qp, wr, comp) -> None:
        book = self._book(qp)
        self._counters_sane(qp, "complete")
        if comp.status is CompletionStatus.WR_FLUSH_ERR:
            book.flushes_seen += 1
        entry = self._wrs.get(id(wr))
        if entry is None or entry[1] == 0:
            if book.allowance > 0:
                book.allowance -= 1   # in flight before the sanitizer was on
            else:
                self.san.record(
                    self.name, f"qp{qp.qp_id}", "complete",
                    f"terminal completion without a matching post "
                    f"(wr_id={wr.wr_id}, {wr.opcode.value}, "
                    f"{comp.status.value}) — duplicate completion?")
            return
        entry[1] -= 1
        if entry[1] == 0:
            del self._wrs[id(wr)]

    def on_qp_destroyed(self, qp) -> None:
        if qp.outstanding:
            self.san.record(
                self.name, f"qp{qp.qp_id}", "destroy",
                f"destroyed with {qp.outstanding} WRs outstanding")

    def finalize(self) -> None:
        for wr, count in self._wrs.values():
            self.san.record(
                self.name, f"wr_id={wr.wr_id}", "finalize",
                f"posted WR ({wr.opcode.value}) never reached a terminal "
                f"completion ({count} post(s) unaccounted)")
        for book in self._qps.values():
            qp = book.qp
            if not qp.destroyed and qp.outstanding:
                self.san.record(
                    self.name, f"qp{qp.qp_id}", "finalize",
                    f"{qp.outstanding} WRs still outstanding after drain")
            actual = qp.flushed_wrs - book.flush_base
            if book.flushes_seen != actual:
                self.san.record(
                    self.name, f"qp{qp.qp_id}", "finalize",
                    f"flush accounting mismatch: {actual} WRs flushed by "
                    f"the QP, {book.flushes_seen} flush completions seen")


class CompletionsChecker:
    """Folds every completion's :meth:`row` into one SHA-256: two runs
    agree on :attr:`digest` exactly when they agree on every completion.
    Raises no violations."""

    name = "completions"
    #: A :meth:`row`'s fields (``qp``: the QP's first-completion index).
    FIELDS = ("qp", "wr_id", "opcode", "status", "timestamp_ns", "value",
              "byte_len", "retries")

    def __init__(self, san):
        self.count = 0
        self._qps: dict[int, int] = {}     # qp_id -> first-seen index
        self._sha = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()

    def on_completed(self, qp, wr, comp) -> None:
        self._sha.update(repr(self.row(qp, comp)).encode())
        self.count += 1

    def row(self, qp, comp) -> tuple:
        """``comp`` as the digest folds it, one value per :attr:`FIELDS`
        entry (the lane differential logs these)."""
        return (self._qps.setdefault(qp.qp_id, len(self._qps)), comp.wr_id,
                comp.opcode.value, comp.status.value, comp.timestamp_ns,
                comp.value, comp.byte_len, comp.retries)


#: The modeled subset of the ibverbs RC state machine (fresh QPs are born
#: RTS; INIT/RTR are collapsed into RdmaContext.create_qp).
LEGAL_TRANSITIONS = frozenset([
    (QPState.RTS, QPState.ERR),
    (QPState.ERR, QPState.RESET),
    (QPState.RESET, QPState.RTS),
])


class QpStateChecker:
    """QP transitions follow RESET→RTS→ERR→RESET; no posts in RESET."""

    name = "qp_state"

    def __init__(self, san):
        self.san = san
        self._states: dict[int, list] = {}    # id(qp) -> [qp, QPState]

    def _track(self, qp, stage: str):
        entry = self._states.get(id(qp))
        if entry is None:
            entry = self._states[id(qp)] = [qp, qp.state]
        elif entry[1] is not qp.state:
            self.san.record(
                self.name, f"qp{qp.qp_id}", stage,
                f"out-of-band state change: {entry[1].value} -> "
                f"{qp.state.value} without a transition hook")
            entry[1] = qp.state
        return entry

    def on_qp_created(self, qp) -> None:
        if qp.state is not QPState.RTS:
            self.san.record(
                self.name, f"qp{qp.qp_id}", "create",
                f"QP born in {qp.state.value}, expected rts")
        self._states[id(qp)] = [qp, qp.state]

    def on_qp_state(self, qp, old: QPState, new: QPState) -> None:
        entry = self._states.get(id(qp))
        if entry is not None and entry[1] is not old:
            self.san.record(
                self.name, f"qp{qp.qp_id}", "transition",
                f"transition {old.value} -> {new.value} but tracked state "
                f"was {entry[1].value}")
        if (old, new) not in LEGAL_TRANSITIONS:
            self.san.record(
                self.name, f"qp{qp.qp_id}", "transition",
                f"illegal transition {old.value} -> {new.value}")
        if entry is None:
            self._states[id(qp)] = [qp, new]
        else:
            entry[1] = new

    def on_posted(self, qp, wr) -> None:
        if qp.destroyed:
            self.san.record(
                self.name, f"qp{qp.qp_id}", "post",
                f"WR (wr_id={wr.wr_id}) accepted on a destroyed QP")
        if qp.state is QPState.RESET:
            self.san.record(
                self.name, f"qp{qp.qp_id}", "post",
                f"WR (wr_id={wr.wr_id}) accepted while the QP is in RESET "
                "(reconnect in progress)")
        self._track(qp, "post")


class OverlapChecker:
    """One-sided WRITE races over the same MR byte range.

    Two enforcement layers:

    * **Claims** (always on): a subsystem that assumes the single-writer
      contract — :class:`~repro.core.consolidation.IoConsolidator` claims
      its hot window — registers ``(mr, range, owner qp)``; any WRITE into
      the range from another QP is a violation.
    * **Strict mode** (opt-in): any two WRITEs with overlapping remote
      ranges concurrently in flight *from different QPs* are flagged — a
      data race, because nothing orders their DMA applies.  8-byte WRITEs
      to a word the responder serializes through its atomic unit (lock
      releases racing CASes) are exempt: the word lock is an ordering
      edge the model itself provides.  Strict mode is wrong for
      last-writer-wins designs (the hashtable's Zipf write storm), which
      is why it is off by default.
    """

    name = "overlap"

    def __init__(self, san, strict: bool = False):
        self.san = san
        self.strict = strict
        #: mr_id -> list of (start, end, owner_qp_id, label)
        self._claims: dict[int, list] = {}
        #: mr_id -> {id(wr): (start, end, qp_id, wr)}  (strict mode only)
        self._inflight: dict[int, dict] = {}

    def claim(self, mr, start: int, end: int, owner_qp, label: str) -> None:
        claims = self._claims.setdefault(mr.mr_id, [])
        for c_start, c_end, c_owner, c_label in claims:
            if start < c_end and c_start < end and c_owner != owner_qp.qp_id:
                self.san.record(
                    self.name, f"mr{mr.mr_id}", "claim",
                    f"claim [{start}, {end}) by {label} overlaps existing "
                    f"claim [{c_start}, {c_end}) by {c_label}")
        claims.append((start, end, owner_qp.qp_id, label))

    def on_posted(self, qp, wr) -> None:
        if wr.opcode is not Opcode.WRITE or wr.remote_mr is None:
            return
        mr = wr.remote_mr
        start = wr.remote_offset
        end = start + wr.total_length
        claims = self._claims.get(mr.mr_id)
        if claims:
            for c_start, c_end, owner, label in claims:
                if start < c_end and c_start < end and qp.qp_id != owner:
                    self.san.record(
                        self.name, f"mr{mr.mr_id}[{start}:{end}]", "post",
                        f"WRITE from qp{qp.qp_id} into the window claimed "
                        f"by {label} (single-writer contract)")
                    break
        if not self.strict:
            return
        if (end - start == 8
                and mr.key_base | start in qp.remote_machine.rnic._atomic_locks):
            return  # responder word lock serializes this word: ordered
        flights = self._inflight.setdefault(mr.mr_id, {})
        for f_start, f_end, f_qp, _wr in flights.values():
            if f_start < end and start < f_end and f_qp != qp.qp_id:
                self.san.record(
                    self.name, f"mr{mr.mr_id}[{start}:{end}]", "post",
                    f"concurrent WRITEs overlap without an ordering edge: "
                    f"qp{qp.qp_id} races qp{f_qp} on [{f_start}, {f_end})")
                break
        flights[id(wr)] = (start, end, qp.qp_id, wr)

    def on_completed(self, qp, wr, comp) -> None:
        if not self.strict or wr.opcode is not Opcode.WRITE \
                or wr.remote_mr is None:
            return
        flights = self._inflight.get(wr.remote_mr.mr_id)
        if flights is not None:
            flights.pop(id(wr), None)


class ConsolidationChecker:
    """IoConsolidator bookkeeping stays bounded and is pruned on flush.

    ``_blocks`` must not accumulate clean (``pending == 0``) entries:
    mid-run, more than :data:`GROWTH_THRESHOLD` clean entries means flushes
    are not pruning (the dict would grow with every block ever dirtied);
    at finalize the bound is exact — zero clean entries after the last
    flush drained.  A small transient of clean entries is legal while a
    flush's RDMA write is in flight, hence the mid-run threshold.
    """

    name = "consolidation"

    #: Clean entries tolerated mid-run (in-flight flushes leave a few).
    GROWTH_THRESHOLD = 64

    def __init__(self, san):
        self.san = san
        self._cons: dict[int, object] = {}
        self._flagged: set[int] = set()

    @staticmethod
    def _clean_entries(cons) -> int:
        return sum(1 for b in cons._blocks.values() if b.pending == 0)

    def register(self, cons) -> None:
        if id(cons) in self._cons:
            return
        self._cons[id(cons)] = cons
        overlap = self.san.overlap
        if overlap is not None:
            overlap.claim(
                cons.remote_mr, cons.remote_base,
                cons.remote_base + cons.staging_mr.size, cons.qp,
                label=f"IoConsolidator(qp{cons.qp.qp_id})")

    def _check_growth(self, cons, stage: str) -> None:
        if id(cons) in self._flagged:
            return
        clean = self._clean_entries(cons)
        if clean > self.GROWTH_THRESHOLD:
            self._flagged.add(id(cons))
            self.san.record(
                self.name, f"consolidator(qp{cons.qp.qp_id})", stage,
                f"{clean} clean _Block entries retained (unbounded growth: "
                "flushed blocks are not pruned)")

    def on_flush(self, cons) -> None:
        self.register(cons)
        self._check_growth(cons, "flush")

    def sweep(self) -> None:
        for cons in self._cons.values():
            self._check_growth(cons, "sweep")

    def finalize(self) -> None:
        for cons in self._cons.values():
            clean = self._clean_entries(cons)
            if clean:
                self.san.record(
                    self.name, f"consolidator(qp{cons.qp.qp_id})", "finalize",
                    f"{clean} clean _Block entries left after drain "
                    "(flush must prune fully-flushed blocks)")


class TenancyChecker:
    """Service-plane accounting: buckets non-negative, SLO monotone."""

    name = "tenancy"

    _SLO_FIELDS = ("ops", "bytes", "errored", "rejected", "retries",
                   "txn_commits", "txn_aborts", "cache_hits",
                   "cache_misses", "cache_invalidations")

    def __init__(self, san):
        self.san = san
        self._slo_snap: dict[str, tuple] = {}

    def on_bucket_consume(self, tenant: str, bucket) -> None:
        # consume() runs only after eligible_at() said a token is there,
        # so the float can only dip below zero through an accounting bug.
        if bucket.tokens < -1e-9:
            self.san.record(
                self.name, f"tenant={tenant}", "bucket",
                f"token bucket went negative: {bucket.tokens:.6f}")

    def on_slo_record(self, tenant: str, slo) -> None:
        # Default 0: SLO-shaped test doubles may omit the txn counters.
        snap = tuple(getattr(slo, f, 0) for f in self._SLO_FIELDS)
        prev = self._slo_snap.get(tenant)
        if prev is not None:
            for field, new, old in zip(self._SLO_FIELDS, snap, prev):
                if new < old:
                    self.san.record(
                        self.name, f"tenant={tenant}", "slo",
                        f"SLO counter {field!r} went backwards: "
                        f"{old} -> {new}")
        self._slo_snap[tenant] = snap


class CacheChecker:
    """Lease-cache coherence: no cached read older than the last acked write.

    The serving tier's front cache (:mod:`repro.load`) promises exactly
    one thing — a hit (or a fill, which seeds future hits) never serves a
    value older than the newest *acknowledged* write for that key.  The
    checker shadows the acknowledgement frontier per key:

    * ``on_cache_invalidate(key, version)`` fires once per acked write
      (when the invalidation directory fans out); the frontier for the
      key rises to ``version`` and must never move backwards — with
      writes sticky-routed to a single owner session on one RC QP, acks
      are issue-ordered, so a regression means versions were minted or
      acknowledged out of order.
    * ``on_cache_fill`` / ``on_cache_hit`` compare the entry's version
      against the frontier.  A stale fill means the write path applied
      remotely *after* acking (or the read raced the directory); a stale
      hit means an invalidation missed a registered cache.

    Unacked writes (shed, errored, ack lost in flight) never raise the
    frontier, so reads observing their residue — same version or newer —
    are coherent by definition.  Pure observation, schedule-neutral.
    """

    name = "cache"

    def __init__(self, san):
        self.san = san
        #: key -> newest acknowledged version (the coherence frontier).
        self._acked: dict[int, int] = {}
        self.fills_seen = 0
        self.hits_seen = 0
        self.invalidations_seen = 0

    def on_invalidate(self, key: int, version: int) -> None:
        self.invalidations_seen += 1
        prev = self._acked.get(key, 0)
        if version < prev:
            self.san.record(
                self.name, f"key={key}", "invalidate",
                f"acked-write frontier went backwards: {prev} -> {version} "
                "(writes acked out of issue order?)")
            return
        self._acked[key] = version

    def on_fill(self, cache, key: int, version: int) -> None:
        self.fills_seen += 1
        self._check(cache, key, version, "fill")

    def on_hit(self, cache, key: int, version: int) -> None:
        self.hits_seen += 1
        self._check(cache, key, version, "hit")

    def _check(self, cache, key: int, version: int, stage: str) -> None:
        floor = self._acked.get(key, 0)
        if version < floor:
            self.san.record(
                self.name, f"cache={getattr(cache, 'name', cache)} key={key}",
                stage,
                f"cached read returned version {version} older than the "
                f"last acknowledged write (version {floor})")


class FabricChecker:
    """Per-link packet conservation on queued fabrics.

    Every hop a message enters (``Link.admit``) reports through
    ``on_fabric_hop``; the checker shadows each link's counters from its
    own observations and cross-checks at finalize:

    * **conservation** — ``packets_in == packets_out + packets_dropped``
      on every link it saw (nothing vanishes from a queue, nothing is
      delivered twice);
    * **divergence** — the link's own counters moved exactly as much as
      the observed hops account for (a mutation outside ``Link.admit``
      would split them);
    * **mark sanity** — a link never marks more packets than it delivers.

    Like every checker it is pure observation: no events, no rng, no
    model mutation.  A sanitizer installed mid-run snapshots each link's
    counters at first sight and checks deltas, so late installation
    never produces false positives.
    """

    name = "fabric"

    def __init__(self, san):
        self.san = san
        #: id(link) -> [link, base_in, base_out, base_drop, base_ecn,
        #:              seen_in, seen_out, seen_drop, seen_ecn]
        self._links: dict[int, list] = {}
        self.hops_seen = 0

    def on_hop(self, link, packets: int, outcome: str) -> None:
        self.hops_seen += 1
        rec = self._links.get(id(link))
        if rec is None:
            # First sight: baseline = counters *before* this hop landed.
            dropped = packets if outcome == "drop" else 0
            marked = packets if outcome == "ecn" else 0
            out = 0 if outcome == "drop" else packets
            rec = self._links[id(link)] = [
                link, link.packets_in - packets, link.packets_out - out,
                link.packets_dropped - dropped, link.ecn_marks - marked,
                0, 0, 0, 0]
        rec[5] += packets
        if outcome == "drop":
            rec[7] += packets
        else:
            rec[6] += packets
            if outcome == "ecn":
                rec[8] += packets

    def finalize(self) -> None:
        for rec in self._links.values():
            link, b_in, b_out, b_drop, b_ecn, s_in, s_out, s_drop, s_ecn = rec
            if link.packets_in != link.packets_out + link.packets_dropped:
                self.san.record(
                    self.name, f"link={link.name}", "conservation",
                    f"packets_in {link.packets_in} != out "
                    f"{link.packets_out} + dropped {link.packets_dropped}")
            for label, counter, expect in (
                    ("packets_in", link.packets_in, b_in + s_in),
                    ("packets_out", link.packets_out, b_out + s_out),
                    ("packets_dropped", link.packets_dropped,
                     b_drop + s_drop),
                    ("ecn_marks", link.ecn_marks, b_ecn + s_ecn)):
                if counter != expect:
                    self.san.record(
                        self.name, f"link={link.name}", "divergence",
                        f"{label} moved outside a reported hop: "
                        f"counter {counter} != observed {expect}")
            if link.ecn_marks > link.packets_out:
                self.san.record(
                    self.name, f"link={link.name}", "marks",
                    f"more ECN marks ({link.ecn_marks}) than delivered "
                    f"packets ({link.packets_out})")
