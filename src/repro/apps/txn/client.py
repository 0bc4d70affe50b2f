"""One-sided OCC transactions over the disaggregated store (Storm-style).

A transaction runs in three phases, all one-sided:

1. **Versioned reads.**  The body reads whole 64-byte entries; an entry
   whose version word carries the LOCK bit is mid-commit, so the read
   polls with backoff (bounded) instead of returning a torn value.  The
   unlocked word *is* the version and is recorded in the read set.
2. **Validate-and-lock.**  Commit CASes every write key's version word
   from the observed version to ``locked_word(version, client_id)`` in
   sorted key order, then re-reads every read-only key's word: any
   change (including a set LOCK bit) aborts.  The CAS doubles as
   validation for write keys — compare fails iff the key moved.
3. **Write-back.**  With all locks held and reads validated (the
   serialization point), values are written to the 48-byte value region
   and each lock is released by an 8-byte WRITE publishing
   ``version + 1`` — cleared lock bit, bumped version.  Both ride the
   same socket-matched QP; the value write is waited out before the
   publish posts, so no reader can observe the new version with the old
   value.

Aborts release acquired locks by restoring the original word and retry
the whole body under truncated exponential backoff
(:class:`~repro.core.locks.BackoffPolicy`, the reliability layer's
idiom).  A transport fault goes through ``RdmaContext.recover_qp`` (the
one recovery path), then idempotent ops replay; an interrupted lock CAS
is disambiguated by re-reading the word (the owner field says whether
our lock landed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

import numpy as np

from repro.apps.hashtable.layout import (ENTRY_BYTES, VALUE_BYTES, VALUE_OFF,
                                         unpack_entry)
from repro.apps.txn.store import TxnStore, is_locked, locked_word
from repro.core.locks import BackoffPolicy
from repro.verbs import (Opcode, QueuePair, RdmaContext, Sge, Worker,
                         WorkRequest)

__all__ = ["Transaction", "TxnAborted", "TxnClient", "TxnConfig",
           "TxnResult"]

#: Scratch offsets (ops run one-at-a-time per client, so buffers reuse).
_ENTRY_BUF = 0        # 64 B: whole-entry reads
_WORD_BUF = 64        # 8 B: version-word reads
_PUB_BUF = 72         # 8 B: publish/release word source
_VALUE_BUF = 128      # 48 B: write-back value staging


class TxnAborted(Exception):
    """An attempt aborted before commit (e.g. read of a locked entry
    exhausted its poll budget); ``execute`` catches this and retries."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class TxnConfig:
    """Abort/backoff policy knobs."""

    #: Attempts (body + commit) before ``execute`` gives up.
    max_attempts: int = 12
    #: Truncated exponential backoff between attempts (and between polls
    #: of a locked entry) — the same policy the remote spinlock uses.
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    #: Locked-word polls tolerated inside one attempt before aborting it.
    read_lock_budget: int = 16

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.read_lock_budget < 1:
            raise ValueError(
                f"read_lock_budget must be >= 1: {self.read_lock_budget}")


@dataclass(frozen=True)
class TxnResult:
    committed: bool
    attempts: int
    latency_ns: float


class Transaction:
    """Client-local read/write sets for one attempt."""

    __slots__ = ("txn_id", "reads", "read_values", "writes", "state")

    OPEN, COMMITTED, ABORTED = "open", "committed", "aborted"

    def __init__(self, txn_id: str):
        self.txn_id = txn_id
        self.reads: dict[int, int] = {}         # key -> observed version
        self.read_values: dict[int, bytes] = {}
        self.writes: dict[int, bytes] = {}
        self.state = self.OPEN

    def _check_open(self) -> None:
        if self.state != self.OPEN:
            raise RuntimeError(f"txn {self.txn_id} is {self.state}")


class TxnClient:
    """Active worker-side handle: runs transactions against a TxnStore.

    ``client_id`` must be unique per client within a rig — it is embedded
    in the lock word's owner field to disambiguate an interrupted lock
    CAS after transport recovery.
    """

    def __init__(self, ctx: RdmaContext, store: TxnStore, machine: int,
                 socket: int = 0, client_id: int = 0,
                 config: Optional[TxnConfig] = None,
                 rng: Optional[np.random.Generator] = None, name: str = ""):
        if machine == store.machine:
            raise ValueError("txn clients must not run on the memory node")
        self.ctx = ctx
        self.sim = ctx.sim
        self.store = store
        self.machine = machine
        self.socket = socket
        self.config = config or TxnConfig()
        self.rng = rng
        self.client_id = client_id
        self.name = name or f"txn.m{machine}.s{socket}.c{client_id}"
        self.worker = Worker(ctx, machine, socket, name=self.name)
        # One socket-matched QP per back-end stripe (the frontend idiom):
        # local port affine to our socket, remote port to the key's.
        cluster = ctx.cluster
        local_port = cluster[machine].port_for_socket(socket).index
        self.qps: dict[int, QueuePair] = {
            s: ctx.create_qp(
                machine, store.machine, local_port=local_port,
                remote_port=cluster[store.machine].port_for_socket(s).index,
                sq_socket=socket)
            for s in range(store.layout.sockets)
        }
        self.scratch = ctx.register(machine, 4096, socket=socket)
        self._seq = itertools.count()
        # stats
        self.begun = 0
        self.commits = 0
        self.aborts = 0               # failed attempts (conflict aborts)
        self.gave_up = 0              # txns abandoned after max_attempts
        self.lock_conflicts = 0
        self.validate_conflicts = 0
        self.lock_waits = 0           # polls of a LOCKed entry during reads
        self.transport_errors = 0

    # ------------------------------------------------------------- plumbing
    def _qp_for(self, key: int) -> QueuePair:
        return self.qps[self.store.socket_of(key)]

    def _hook(self, hook: str, *args) -> None:
        check = self.sim.check
        if check is not None:
            getattr(check, hook)(self, *args)

    def _reliable(self, opcode: Opcode, qp: QueuePair, mr, off: int,
                  nbytes: int, scratch_off: int) -> Generator:
        """READ into / WRITE from scratch, replaying across transport
        faults after ``RdmaContext.recover_qp``: reads are idempotent, a
        write's payload is constant for the op, and loss windows are
        finite."""
        while True:
            wr = WorkRequest(opcode,
                             sgl=[Sge(self.scratch, scratch_off, nbytes)],
                             remote_mr=mr, remote_offset=off)
            comp = yield from self.worker.execute(qp, wr)
            if comp.ok:
                return
            self.transport_errors += 1
            yield from self.ctx.recover_qp(qp)

    # ----------------------------------------------------------- read phase
    def read(self, txn: Transaction, key: int) -> Generator:
        """Versioned read of one entry (read-your-writes, repeatable)."""
        txn._check_open()
        if key in txn.writes:
            return txn.writes[key]
        if key in txn.reads:
            return txn.read_values[key]
        mr, off = self.store.entry_location(key)
        qp = self._qp_for(key)
        waits = 0
        while True:
            yield from self._reliable(Opcode.READ, qp, mr, off, ENTRY_BYTES,
                                      _ENTRY_BUF)
            _key, word, value = unpack_entry(
                self.scratch.read(_ENTRY_BUF, ENTRY_BYTES))
            if not is_locked(word):
                break
            # Mid-commit entry: poll rather than surface a torn value.
            waits += 1
            self.lock_waits += 1
            if waits > self.config.read_lock_budget:
                raise TxnAborted("read-locked")
            yield self.sim.timeout(
                self.config.backoff.delay_ns(waits, self.rng))
        txn.reads[key] = word       # unlocked word == version
        txn.read_values[key] = value
        self._hook("on_txn_read", txn.txn_id, key, word)
        return value

    def write(self, txn: Transaction, key: int, value: bytes) -> None:
        """Buffer a write; no remote traffic until commit."""
        txn._check_open()
        if not 0 <= key < self.store.n_keys:
            raise ValueError(f"key {key} out of range")
        if len(value) > VALUE_BYTES:
            raise ValueError(
                f"value of {len(value)} B exceeds {VALUE_BYTES} B")
        txn.writes[key] = bytes(value)

    # --------------------------------------------------------- commit phase
    def _observe_version(self, txn: Transaction, key: int) -> Generator:
        """Blind writes still need an expected version for the lock CAS."""
        mr, off = self.store.version_location(key)
        qp = self._qp_for(key)
        waits = 0
        while True:
            yield from self._reliable(Opcode.READ, qp, mr, off, 8, _WORD_BUF)
            word = self.scratch.read_u64(_WORD_BUF)
            if not is_locked(word):
                txn.reads[key] = word
                return
            waits += 1
            self.lock_waits += 1
            if waits > self.config.read_lock_budget:
                raise TxnAborted("write-locked")
            yield self.sim.timeout(
                self.config.backoff.delay_ns(waits, self.rng))

    def _lock(self, txn: Transaction, key: int) -> Generator:
        """CAS the version word observed-version -> locked; True iff won.

        A transport-failed CAS is ambiguous ("data may have landed"):
        after recovery the word is re-read — our owner id in the locked
        pattern says whether the lock is ours, unchanged means the CAS
        never executed (retry), anything else is a conflict.
        """
        v = txn.reads[key]
        mr, off = self.store.version_location(key)
        qp = self._qp_for(key)
        mine = locked_word(v, self.client_id)
        while True:
            comp = yield from self.worker.cas(qp, mr, off, compare=v,
                                              swap=mine)
            if comp.ok:
                return comp.value == v
            self.transport_errors += 1
            yield from self.ctx.recover_qp(qp)
            yield from self._reliable(Opcode.READ, qp, mr, off, 8, _WORD_BUF)
            word = self.scratch.read_u64(_WORD_BUF)
            if word == mine:
                return True
            if word != v:
                return False

    def _validate(self, txn: Transaction, key: int) -> Generator:
        """Re-read one read-only key's word; True iff still the version
        we read (a set LOCK bit also fails the equality)."""
        mr, off = self.store.version_location(key)
        qp = self._qp_for(key)
        yield from self._reliable(Opcode.READ, qp, mr, off, 8, _WORD_BUF)
        word = self.scratch.read_u64(_WORD_BUF)
        ok = word == txn.reads[key]
        self._hook("on_txn_validate", txn.txn_id, key, word, ok)
        return ok

    def _release_locks(self, txn: Transaction, keys: list) -> Generator:
        """Abort path: restore each acquired word to its original
        (unlocked) version — an idempotent 8-byte write."""
        for key in keys:
            mr, off = self.store.version_location(key)
            self.scratch.write_u64(_PUB_BUF, txn.reads[key])
            yield from self._reliable(Opcode.WRITE, self._qp_for(key), mr,
                                      off, 8, _PUB_BUF)

    def _abort(self, txn: Transaction, reason: str) -> None:
        txn.state = Transaction.ABORTED
        self._hook("on_txn_abort", txn.txn_id, reason)

    def _try_commit(self, txn: Transaction) -> Generator:
        """One validate-and-commit pass; False == conflict abort."""
        wkeys = sorted(txn.writes)
        for key in wkeys:
            if key not in txn.reads:
                yield from self._observe_version(txn, key)
        acquired: list[int] = []
        for key in wkeys:
            won = yield from self._lock(txn, key)
            if not won:
                self.lock_conflicts += 1
                yield from self._release_locks(txn, acquired)
                self._abort(txn, "lock-conflict")
                return False
            acquired.append(key)
        for key in sorted(txn.reads):
            if key in txn.writes:
                continue
            ok = yield from self._validate(txn, key)
            if not ok:
                self.validate_conflicts += 1
                yield from self._release_locks(txn, acquired)
                self._abort(txn, "validate-conflict")
                return False
        # Serialization point: every write key locked, every read
        # validated.  The serializability oracle witnesses commit order
        # here, before write-back posts.
        writes = {k: (txn.reads[k], txn.reads[k] + 1) for k in wkeys}
        reads = {k: v for k, v in txn.reads.items() if k not in txn.writes}
        txn.state = Transaction.COMMITTED
        self._hook("on_txn_commit", txn.txn_id, reads, writes)
        for key in wkeys:
            mr, off = self.store.entry_location(key)
            self.scratch.write(_VALUE_BUF,
                               txn.writes[key].ljust(VALUE_BYTES, b"\x00"))
            yield from self._reliable(Opcode.WRITE, self._qp_for(key), mr,
                                      off + VALUE_OFF, VALUE_BYTES,
                                      _VALUE_BUF)
            # Publish: bump the version, clear lock+owner — ordered after
            # the value write (waited out above), so no torn reads.
            self.scratch.write_u64(_PUB_BUF, txn.reads[key] + 1)
            vmr, voff = self.store.version_location(key)
            yield from self._reliable(Opcode.WRITE, self._qp_for(key), vmr,
                                      voff, 8, _PUB_BUF)
        return True

    # -------------------------------------------------------------- driver
    def execute(self, body: Callable[[Transaction], Generator]) -> Generator:
        """Run ``body(txn)`` under OCC: abort -> backoff -> re-execute.

        Returns a :class:`TxnResult`; commit latency spans the *first*
        attempt's begin to commit (retries included — the tenant-visible
        number).
        """
        t0 = self.sim.now
        attempt = 0
        while True:
            attempt += 1
            txn = Transaction(f"{self.name}#{next(self._seq)}")
            self.begun += 1
            self._hook("on_txn_begin", txn.txn_id)
            try:
                yield from body(txn)
                committed = yield from self._try_commit(txn)
            except TxnAborted as aborted:
                self._abort(txn, aborted.reason)  # no locks held here
                committed = False
            if committed:
                self.commits += 1
                return TxnResult(True, attempt, self.sim.now - t0)
            self.aborts += 1
            if attempt >= self.config.max_attempts:
                self.gave_up += 1
                return TxnResult(False, attempt, self.sim.now - t0)
            yield self.sim.timeout(
                self.config.backoff.delay_ns(attempt, self.rng))
