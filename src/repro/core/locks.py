"""Spinlocks: local atomics, one-sided remote atomics, and RPC (III-E).

Three implementations of the same mutual-exclusion contract, matching the
paper's Fig 10(a) configurations:

* :class:`LocalSpinLock` — GCC ``__sync_compare_and_swap`` model: cheap
  uncontended, but cache-line bouncing makes contended attempts cost
  superlinearly more, producing the collapse of the local curve.
* :class:`RemoteSpinLock` — RDMA ``compare_and_swap`` on a remote 8-byte
  word; release is an (unsignaled) RDMA write of 0.  Optionally uses
  :class:`BackoffPolicy` (Anderson's exponential backoff) to tame
  contention — the solid points in Fig 10(a).
* :class:`RpcSpinLock` — a lock service over channel-semantic verbs; the
  server queues contending requests and hands the lock over on unlock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.core.rpc import DEFER, RpcChannel, RpcRequest, RpcServer
from repro.sim import Simulator
from repro.verbs import (
    MemoryRegion,
    Opcode,
    QPState,
    QueuePair,
    RdmaContext,
    Sge,
    Worker,
    WorkRequest,
)

__all__ = ["BackoffPolicy", "LocalSpinLock", "RemoteSpinLock", "RpcSpinLock"]


@dataclass
class BackoffPolicy:
    """Truncated exponential backoff with jitter [Anderson 1990]."""

    base_ns: float = 500.0
    factor: float = 2.0
    cap_ns: float = 64_000.0
    jitter: float = 0.2

    def __post_init__(self) -> None:
        if self.base_ns <= 0 or self.factor < 1 or self.cap_ns < self.base_ns:
            raise ValueError(f"invalid backoff policy: {self}")
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must be in [0, 1): {self.jitter}")

    def delay_ns(self, attempt: int, rng: Optional[np.random.Generator] = None
                 ) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        d = min(self.base_ns * self.factor ** (attempt - 1), self.cap_ns)
        if rng is not None and self.jitter:
            d *= 1 + rng.uniform(-self.jitter, self.jitter)
        return d


class LocalSpinLock:
    """Spinlock in one machine's shared memory (cost-model based).

    The lock word is real (mutual exclusion is enforced); the *cost* of a
    CAS attempt grows quadratically with the number of concurrent spinners,
    modeling the coherence-traffic collapse of naive test-and-set locks.
    """

    #: Quadratic coherence-traffic coefficient (calibrated to the Fig 10a
    #: local curve: ~25 MOPS alone, ~0.3 MOPS at 8 threads).
    CONTENTION_COEFF = 3.0

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.held = False
        self.spinners = 0
        self.acquisitions = 0
        self.failed_attempts = 0

    def _attempt_cost(self, params) -> float:
        others = max(0, self.spinners - 1)
        return params.local_cas_ns * (1 + self.CONTENTION_COEFF * others ** 2)

    def acquire(self, worker: Worker) -> Generator:
        self.spinners += 1
        try:
            while True:
                yield from worker.compute(self._attempt_cost(worker.params))
                if not self.held:
                    self.held = True
                    self.acquisitions += 1
                    return
                self.failed_attempts += 1
        finally:
            self.spinners -= 1

    def release(self, worker: Worker) -> Generator:
        if not self.held:
            raise RuntimeError("release of a free LocalSpinLock")
        # The releasing store fights the same coherence storm the spinners
        # generate — this is what makes naive TAS locks collapse.
        p = worker.params
        cost = p.local_cas_ns * (1 + self.CONTENTION_COEFF * self.spinners ** 2)
        yield from worker.compute(cost)
        self.held = False


class RemoteSpinLock:
    """Client handle for a lock word living in remote memory.

    The lock word is ``(lock_mr, lock_offset)``; UNLOCKED == 0, LOCKED == 1.
    Each client needs its own worker, QP to the lock's machine, and a tiny
    scratch MR holding the zero word used by the release write.
    """

    UNLOCKED, LOCKED = 0, 1

    def __init__(self, worker: Worker, qp: QueuePair, scratch_mr: MemoryRegion,
                 lock_mr: MemoryRegion, lock_offset: int = 0,
                 backoff: Optional[BackoffPolicy] = None,
                 rng: Optional[np.random.Generator] = None):
        if lock_offset % 8:
            raise ValueError("lock word must be 8-byte aligned")
        self.worker = worker
        self.qp = qp
        self.scratch_mr = scratch_mr
        self.lock_mr = lock_mr
        self.lock_offset = lock_offset
        self.backoff = backoff
        self.rng = rng
        scratch_mr.write_u64(0, self.UNLOCKED)  # the zero word we write back
        self.acquisitions = 0
        self.failed_attempts = 0
        self.transport_errors = 0

    def try_acquire(self) -> Generator:
        """One CAS attempt; returns True on success.

        Transport failures (lossy or blackholed path) count as failed
        attempts: the QP is recovered (``RdmaContext.recover_qp``) and the
        caller's acquire loop simply spins again — degraded, not dead.  A
        ``RETRY_EXC_ERR``/flush means the CAS never executed at the
        responder (the loss model drops requests before they reach it), so
        spinning again is safe.
        """
        comp = yield from self.worker.cas(
            self.qp, self.lock_mr, self.lock_offset,
            compare=self.UNLOCKED, swap=self.LOCKED)
        if not comp.ok:
            self.transport_errors += 1
            yield from self.worker.ctx.recover_qp(self.qp)
            self.failed_attempts += 1
            return False
        if comp.value == self.UNLOCKED:
            self.acquisitions += 1
            check = self.worker.sim.check
            if check is not None:
                check.on_lock_acquired(self)
            return True
        self.failed_attempts += 1
        return False

    def acquire(self) -> Generator:
        attempt = 0
        while True:
            ok = yield from self.try_acquire()
            if ok:
                return
            attempt += 1
            if self.backoff is not None:
                yield self.worker.sim.timeout(
                    self.backoff.delay_ns(attempt, self.rng))

    def _path_unreliable(self) -> bool:
        """True when a fire-and-forget write could silently vanish: the QP
        is not in RTS, or either endpoint port is currently lossy."""
        qp = self.qp
        return (qp.state is not QPState.RTS
                or qp.local_port.lossy or qp.remote_port.lossy)

    def release(self) -> Generator:
        """RDMA-write 0 into the lock word (one-sided release).

        Fire-and-forget: the releasing write is posted but not waited on
        (RC ordering on the QP keeps it ahead of this client's next CAS),
        which is how real remote locks keep the release off the critical
        path.

        When the path is unreliable (QP not in RTS, or either port lossy)
        the write is signaled and waited out instead: an unsignaled unlock
        that dies in transit is never retried, leaving the word locked
        forever and every other client deadlocked.
        """
        check = self.worker.sim.check
        if check is not None:
            check.on_lock_release_start(self)
        while True:
            signaled = self._path_unreliable()
            wr = WorkRequest(Opcode.WRITE,
                             sgl=[Sge(self.scratch_mr, 0, 8)],
                             remote_mr=self.lock_mr,
                             remote_offset=self.lock_offset,
                             signaled=signaled)
            ev = yield from self.worker.post(self.qp, wr)
            if not signaled:
                return
            comp = yield from self.worker.wait(ev)
            if comp.ok:
                return
            # The unlock write is idempotent (stores the constant 0), so a
            # transport failure is survivable: recover and rewrite.
            self.transport_errors += 1
            yield from self.worker.ctx.recover_qp(self.qp)


class RpcSpinLock:
    """Lock service over two-sided verbs.

    Two server flavours (build once with :meth:`make_server`, then one
    :class:`RpcSpinLock` per client thread):

    * *polling* (default) — the paper's literal "RPC-based spinlock": a
      lock request is answered ``granted`` or ``busy`` and busy clients
      simply retry.  Under contention the poll spam saturates the server
      thread and delays the unlock itself — the collapse in Fig 10(a).
    * *fair* (``fair=True``) — the server parks contending requests and
      hands the lock over FIFO on unlock (a better design than the paper
      benchmarked; used by the ablation bench).
    """

    def __init__(self, channel: RpcChannel, worker: Worker):
        self.channel = channel
        self.worker = worker
        self.acquisitions = 0
        self.busy_polls = 0

    @staticmethod
    def make_server(ctx: RdmaContext, machine: int, socket: int = 0,
                    fair: bool = False) -> RpcServer:
        """An RPC server running the lock protocol.

        The server remembers the holder's identity (the granting request's
        reply-QP id) and answers an ``unlock`` from anyone else with
        ``not_holder`` instead of freeing the lock — a stray or duplicated
        unlock must not break mutual exclusion for the real holder.
        """
        server = RpcServer(ctx, machine, socket, name=f"lockserver.m{machine}")
        state = {"free": True, "holder": None}
        waiters: list[RpcRequest] = []
        key = ("rpc-lock", server.name)

        def grant(request) -> None:
            state["free"] = False
            state["holder"] = request.reply_qp.qp_id
            check = ctx.sim.check
            if check is not None:
                check.on_rpc_lock_granted(key, state["holder"])

        def unlock_accepted(request) -> bool:
            holder = state["holder"]
            accepted = holder == request.reply_qp.qp_id
            check = ctx.sim.check
            if check is not None:
                check.on_rpc_lock_released(key, request.reply_qp.qp_id,
                                           holder, accepted)
            return accepted

        def polling_handler(body, request):
            if body == "lock":
                if state["free"]:
                    grant(request)
                    return "granted"
                return "busy"
            if body == "unlock":
                if not unlock_accepted(request):
                    return "not_holder"
                state["free"] = True
                state["holder"] = None
                return "ok"
            raise ValueError(f"unknown lock op: {body!r}")

        def fair_handler(body, request) -> Generator:
            if body == "lock":
                if state["free"]:
                    grant(request)
                    return "granted"
                waiters.append(request)
                return DEFER
            if body == "unlock":
                if not unlock_accepted(request):
                    return "not_holder"
                if waiters:
                    nxt = waiters.pop(0)
                    grant(nxt)
                    yield from server.respond(nxt, "granted")
                else:
                    state["free"] = True
                    state["holder"] = None
                return "ok"
            raise ValueError(f"unknown lock op: {body!r}")

        server.start(fair_handler if fair else polling_handler)
        return server

    def acquire(self) -> Generator:
        while True:
            reply = yield from self.channel.call(self.worker, "lock")
            if reply == "granted":
                self.acquisitions += 1
                return
            if reply != "busy":  # pragma: no cover - protocol invariant
                raise RuntimeError(f"unexpected lock reply: {reply!r}")
            self.busy_polls += 1

    def release(self) -> Generator:
        reply = yield from self.channel.call(self.worker, "unlock")
        if reply != "ok":
            raise RuntimeError(f"unlock rejected by lock server: {reply!r}")
