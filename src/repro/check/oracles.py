"""Linearizability oracles for the Section III-E atomics building blocks.

These checkers model the *contract* of a distributed primitive and replay
the observed operation stream against it:

* :class:`LockOracle` — mutual exclusion and no-lost-unlock for
  :class:`~repro.core.locks.RemoteSpinLock` (one-sided CAS/WRITE) and the
  :class:`~repro.core.locks.RpcSpinLock` server.
* :class:`SequencerOracle` — sequence values are dense and never repeat,
  even under fault injection (the distributed log's space-reservation
  contract).

The remote-lock oracle needs no instrumentation on the release data path:
release writes are recognized at the QP completion hook by their target
word, learned from the acquire/release-start hooks.  The linearization
point it uses for a handover is deliberately loose — a competitor's CAS
may legitimately succeed after the release write *applied* at the
responder but before the releaser's completion *returned* — so a release
that is still in flight marks the previous holder as a pending handover
instead of tripping mutual exclusion.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro.verbs.types import Opcode

__all__ = ["LockOracle", "SequencerOracle", "TxnOracle"]


class _LockState:
    __slots__ = ("holder", "releasing", "pending_handover")

    def __init__(self):
        self.holder = None        # current owner (lock handle or qp_id)
        self.releasing = False    # holder has started releasing
        #: Owners whose release outcome is still in flight after a
        #: successor already acquired (requester-side completion lag).
        self.pending_handover: set = set()


class LockOracle:
    """Mutual exclusion + no-lost-unlock, for remote and RPC spinlocks."""

    name = "locks"

    UNLOCKED = 0

    def __init__(self, san):
        self.san = san
        self._states: dict = {}        # key -> _LockState
        self._words: dict = {}         # (mr_id, offset) -> lock MemoryRegion
        self._owner_by_qp: dict = {}   # ((mr_id, offset), qp_id) -> handle

    def _state(self, key) -> _LockState:
        st = self._states.get(key)
        if st is None:
            st = self._states[key] = _LockState()
        return st

    @staticmethod
    def _word_key(lock) -> tuple:
        return (lock.lock_mr.mr_id, lock.lock_offset)

    def _learn(self, lock) -> tuple:
        key = self._word_key(lock)
        self._words[key] = lock.lock_mr
        self._owner_by_qp[(key, lock.qp.qp_id)] = lock
        return key

    @staticmethod
    def _owner_name(owner) -> str:
        worker = getattr(owner, "worker", None)
        return worker.name if worker is not None else str(owner)

    # ------------------------------------------------- one-sided spinlock
    def on_lock_acquired(self, lock) -> None:
        """A RemoteSpinLock CAS observed UNLOCKED and took the lock."""
        key = self._learn(lock)
        st = self._state(key)
        if st.holder is None or st.holder is lock:
            if st.holder is lock:
                self.san.record(
                    self.name, f"lock{key}", "acquire",
                    f"{self._owner_name(lock)} re-acquired a lock it "
                    "already holds (missing release)")
            st.holder = lock
            st.releasing = False
            return
        if st.releasing:
            # Legitimate handover: the previous holder's release write
            # applied at the responder; its completion is still in flight.
            st.pending_handover.add(st.holder)
        else:
            self.san.record(
                self.name, f"lock{key}", "acquire",
                f"mutual exclusion violated: {self._owner_name(lock)} "
                f"acquired while {self._owner_name(st.holder)} holds the "
                "lock")
        st.holder = lock
        st.releasing = False

    def on_lock_release_start(self, lock) -> None:
        key = self._learn(lock)
        st = self._state(key)
        if st.holder is lock:
            st.releasing = True
        elif st.holder is None and not st.pending_handover:
            self.san.record(
                self.name, f"lock{key}", "release",
                f"{self._owner_name(lock)} released a lock it does not "
                "hold")

    def on_completed(self, qp, wr, comp) -> None:
        """Route WRITE completions that target a known lock word."""
        if wr.opcode is not Opcode.WRITE or wr.remote_mr is None:
            return
        key = (wr.remote_mr.mr_id, wr.remote_offset)
        st = self._states.get(key)
        if st is None or wr.total_length != 8:
            return
        owner = self._owner_by_qp.get((key, qp.qp_id))
        if owner is None:
            return
        if comp.ok:
            if owner in st.pending_handover:
                st.pending_handover.discard(owner)
            elif st.holder is owner and st.releasing:
                st.holder = None
                st.releasing = False
            return
        # Errored release write.
        if owner in st.pending_handover:
            # A successor already holds the lock, so whether this write
            # landed is moot — no deadlock either way.
            st.pending_handover.discard(owner)
            return
        if st.holder is owner and st.releasing:
            mr = self._words.get(key)
            if mr is not None and mr.read_u64(key[1]) == self.UNLOCKED:
                # "Data may have landed" flush ambiguity: it did.
                st.holder = None
                st.releasing = False
                return
            if not wr.signaled:
                # Fire-and-forget release failed with the word still
                # LOCKED and nobody watching the completion: the unlock
                # is lost and every other client spins forever.
                self.san.record(
                    self.name, f"lock{key}", "complete",
                    f"lost unlock: unsignaled release by "
                    f"{self._owner_name(owner)} failed "
                    f"({comp.status.value}) with the lock word still "
                    "locked — permanent deadlock")
                st.holder = None     # resync; finalize must not re-report
                st.releasing = False
            # Signaled failure: the releaser observed it and is expected
            # to retry — judged at finalize if it never succeeds.

    # ---------------------------------------------------- RPC lock server
    def on_rpc_lock_granted(self, key, owner_qp_id: int) -> None:
        st = self._state(key)
        if st.holder is not None and st.holder != owner_qp_id:
            self.san.record(
                self.name, f"lock{key}", "grant",
                f"RPC lock granted to qp{owner_qp_id} while held by "
                f"qp{st.holder}")
        st.holder = owner_qp_id
        st.releasing = False

    def on_rpc_lock_released(self, key, requester_qp_id: int, holder,
                             accepted: bool) -> None:
        st = self._state(key)
        if accepted:
            if st.holder is None or st.holder != requester_qp_id:
                held = "free" if st.holder is None else f"qp{st.holder}"
                self.san.record(
                    self.name, f"lock{key}", "release",
                    f"unlock accepted from non-holder qp{requester_qp_id} "
                    f"(lock is {held})")
            st.holder = None
            st.releasing = False
        # A rejected unlock is the server doing its job: no violation.

    # -------------------------------------------------------------- final
    def finalize(self) -> None:
        for key, st in self._states.items():
            mr = self._words.get(key)
            if mr is None or mr.read_u64(key[1]) == self.UNLOCKED:
                continue
            if st.releasing:
                self.san.record(
                    self.name, f"lock{key}", "finalize",
                    f"release by {self._owner_name(st.holder)} started but "
                    "never completed: lock word still locked after drain")
            elif st.holder is None:
                self.san.record(
                    self.name, f"lock{key}", "finalize",
                    "lost unlock: the last release completed, yet the lock "
                    "word is still locked after drain with no holder")


class SequencerOracle:
    """Sequence reservations are dense and never repeat.

    Each successful ``next(n)`` reports the half-open range
    ``[first, first + n)``.  Ranges must never overlap (a repeat breaks
    the log's exclusive-space contract immediately) and, once the run has
    drained, their union must be a single contiguous span (a gap means a
    reservation was paid for at the counter but lost by the client —
    exactly what an ignored errored completion produces).  Density is a
    finalize-only check because completions are *observed* out of counter
    order across clients.
    """

    name = "sequencer"

    def __init__(self, san):
        self.san = san
        self._ranges: dict = {}    # key -> sorted list of (lo, hi) merged
        self._owners: dict = {}    # key -> representative owner (messages)

    def on_sequence(self, key, first, n: int, owner) -> None:
        self._owners.setdefault(key, owner)
        if not isinstance(first, int):
            self.san.record(
                self.name, f"seq{key}", "next",
                f"non-integer sequence value {first!r} handed out — an "
                "errored completion's value leaked through")
            return
        lo, hi = first, first + n
        ranges = self._ranges.setdefault(key, [])
        if ranges and ranges[-1][1] == lo:     # extends the top range
            ranges[-1] = (ranges[-1][0], hi)
            return
        i = bisect_left(ranges, (lo, hi))
        prev_hi = ranges[i - 1][1] if i > 0 else None
        next_lo = ranges[i][0] if i < len(ranges) else None
        if (prev_hi is not None and prev_hi > lo) \
                or (next_lo is not None and next_lo < hi):
            self.san.record(
                self.name, f"seq{key}", "next",
                f"repeated sequence values: [{lo}, {hi}) overlaps an "
                "already-issued reservation")
            return
        # Insert, merging with touching neighbours to keep the list tiny.
        if prev_hi == lo and next_lo == hi:
            merged = (ranges[i - 1][0], ranges[i][1])
            ranges[i - 1:i + 1] = [merged]
        elif prev_hi == lo:
            ranges[i - 1] = (ranges[i - 1][0], hi)
        elif next_lo == hi:
            ranges[i] = (lo, ranges[i][1])
        else:
            insort(ranges, (lo, hi))

    def finalize(self) -> None:
        for key, ranges in self._ranges.items():
            if len(ranges) > 1:
                gaps = ", ".join(
                    f"[{a_hi}, {b_lo})"
                    for (_, a_hi), (b_lo, _) in zip(ranges, ranges[1:]))
                self.san.record(
                    self.name, f"seq{key}", "finalize",
                    f"sequence space not dense: values {gaps} were "
                    "reserved at the counter but never handed out")


class TxnOracle:
    """Serializability witness for the one-sided OCC transactions.

    The :class:`~repro.apps.txn.TxnClient` commit hook fires at the
    protocol's serialization point (all write locks held, all reads
    validated, before write-back posts), reporting the transaction's read
    set ``{key: version}`` and write set ``{key: (old, new)}``.  Because
    writers to one key hold its lock from the CAS until the publish
    write, write commits to a key arrive in lock order — so the per-key
    **version chain** check is exact: every commit must extend the chain
    by exactly one version, and a stale ``old`` is a lost update (a
    commit whose validating CAS was skipped or ignored).

    Read consistency cannot be judged against "the current version at
    hook time" (a reader may legitimately serialize before a writer
    whose hook fired earlier), so reads are checked at finalize by
    building the **serialization graph** from version observations —
    write-read edges (installer -> reader), write-write edges (chain
    order), and read-write anti-dependency edges (reader -> installer of
    the next version) — and requiring it to be acyclic.  A commit that
    skips read validation shows up as a cycle (e.g. write skew: two
    transactions that each read what the other wrote).

    Registered stores additionally get a finalize sweep: no version word
    may be left LOCKed after drain, and each key's published version
    must match the witnessed chain head.
    """

    name = "txn"

    def __init__(self, san):
        self.san = san
        self._stores: list = []
        self._state: dict = {}       # txn_id -> open/committed/aborted
        self._commits: list = []     # (txn_id, reads, writes), commit order
        self._chain: dict = {}       # key -> last committed version
        self._order: dict = {}       # key -> [(version, txn_id)] chain order
        self._installed: dict = {}   # key -> {version: txn_id}
        self._known_keys: set = set()
        self._initial: dict = {}     # key -> initial version (from stores)

    # ------------------------------------------------------------- plumbing
    @staticmethod
    def _is_locked(word: int) -> bool:
        return bool(word & (1 << 63))

    def _where(self, txn_id: str) -> str:
        return f"txn[{txn_id}]"

    # ------------------------------------------------------------ txn hooks
    def on_txn_store(self, store) -> None:
        self._stores.append(store)
        from repro.apps.txn.store import INITIAL_VERSION
        for key in range(store.n_keys):
            self._known_keys.add(key)
            self._initial[key] = INITIAL_VERSION

    def on_txn_begin(self, client, txn_id: str) -> None:
        if txn_id in self._state:
            self.san.record(
                self.name, self._where(txn_id), "begin",
                f"duplicate begin (txn is {self._state[txn_id]})")
        self._state[txn_id] = "open"

    def on_txn_read(self, client, txn_id: str, key: int, version: int) -> None:
        if self._state.get(txn_id) != "open":
            self.san.record(
                self.name, self._where(txn_id), "read",
                f"read of key {key} on a "
                f"{self._state.get(txn_id, 'never-begun')} transaction")
        if self._is_locked(version):
            self.san.record(
                self.name, self._where(txn_id), "read",
                f"torn versioned read: key {key} surfaced a LOCKed word "
                f"{version:#x} as its version")

    def on_txn_validate(self, client, txn_id: str, key: int, word: int,
                        ok: bool) -> None:
        if self._state.get(txn_id) != "open":
            self.san.record(
                self.name, self._where(txn_id), "validate",
                f"validation of key {key} on a "
                f"{self._state.get(txn_id, 'never-begun')} transaction")

    def on_txn_commit(self, client, txn_id: str, reads: dict,
                      writes: dict) -> None:
        state = self._state.get(txn_id)
        if state != "open":
            self.san.record(
                self.name, self._where(txn_id), "commit",
                f"commit of a {state or 'never-begun'} transaction")
        self._state[txn_id] = "committed"
        for key, (v_old, v_new) in writes.items():
            cur = self._chain.get(key)
            if cur is None:
                cur = self._initial.get(key, v_old)
            if v_old != cur:
                self.san.record(
                    self.name, self._where(txn_id), "commit",
                    f"lost update on key {key}: committed against version "
                    f"{v_old} but the chain head is {cur} — a conflicting "
                    "commit was not observed (validation skipped?)")
            if v_new != v_old + 1:
                self.san.record(
                    self.name, self._where(txn_id), "commit",
                    f"key {key} version stepped {v_old} -> {v_new} "
                    "(must advance by exactly 1)")
            self._chain[key] = v_new
            self._order.setdefault(key, []).append((v_new, txn_id))
            self._installed.setdefault(key, {})[v_new] = txn_id
        self._commits.append((txn_id, dict(reads), dict(writes)))

    def on_txn_abort(self, client, txn_id: str, reason: str) -> None:
        state = self._state.get(txn_id)
        if state == "committed":
            self.san.record(
                self.name, self._where(txn_id), "abort",
                f"abort ({reason}) of an already-committed transaction")
        elif state is None:
            self.san.record(
                self.name, self._where(txn_id), "abort",
                f"abort ({reason}) of a never-begun transaction")
        self._state[txn_id] = "aborted"

    # ---------------------------------------------------------------- graph
    def _edges(self) -> dict:
        edges: dict = {}

        def add(a: str, b: str) -> None:
            if a != b:
                edges.setdefault(a, []).append(b)

        for key, chain in self._order.items():
            for (_va, ta), (_vb, tb) in zip(chain, chain[1:]):
                add(ta, tb)                       # ww: chain order
        for txn_id, reads, writes in self._commits:
            for key, v in reads.items():
                installer = self._installed.get(key, {}).get(v)
                if installer is None and key in self._known_keys \
                        and v != self._initial.get(key):
                    self.san.record(
                        self.name, self._where(txn_id), "finalize",
                        f"read of key {key} observed version {v}, which no "
                        "committed transaction installed")
                if installer is not None:
                    add(installer, txn_id)        # wr: installer -> reader
                for vn, tn in self._order.get(key, ()):
                    if vn > v:
                        add(txn_id, tn)           # rw: reader -> overwriter
                        break
        # Dedup while preserving first-seen order (determinism).
        return {a: list(dict.fromkeys(bs)) for a, bs in edges.items()}

    def _find_cycle(self, edges: dict):
        """First cycle in the serialization graph, as a txn-id path."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = {}
        for root in edges:
            if color.get(root, WHITE) != WHITE:
                continue
            stack = [(root, iter(edges.get(root, ())))]
            color[root] = GREY
            path = [root]
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    c = color.get(nxt, WHITE)
                    if c == GREY:
                        return path[path.index(nxt):] + [nxt]
                    if c == WHITE:
                        color[nxt] = GREY
                        path.append(nxt)
                        stack.append((nxt, iter(edges.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    path.pop()
                    stack.pop()
        return None

    # -------------------------------------------------------------- final
    def finalize(self) -> None:
        cycle = self._find_cycle(self._edges())
        if cycle is not None:
            self.san.record(
                self.name, "txn-graph", "finalize",
                "serialization graph has a cycle — the committed "
                "transactions admit no serial order: "
                + " -> ".join(cycle))
        for store in self._stores:
            for key in range(store.n_keys):
                word = store.peek_word(key)
                if self._is_locked(word):
                    self.san.record(
                        self.name, f"key[{key}]", "finalize",
                        f"version word left LOCKed after drain ({word:#x}) "
                        "— an abort or commit never released its lock")
                    continue
                expect = self._chain.get(key)
                if expect is not None and word != expect:
                    self.san.record(
                        self.name, f"key[{key}]", "finalize",
                        f"published version {word} does not match the "
                        f"witnessed chain head {expect} — a committed "
                        "write was never published")
