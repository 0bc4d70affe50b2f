"""Wire-level types: opcodes, scatter/gather elements, work requests, CQEs."""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.mr import MemoryRegion

__all__ = ["Opcode", "CompletionStatus", "CompletionError", "Sge",
           "WorkRequest", "Completion"]


class Opcode(enum.Enum):
    """Verb opcodes.  WRITE/READ/CAS/FAA are memory semantic (one-sided);
    SEND is channel semantic (two-sided)."""

    WRITE = "write"
    READ = "read"
    CAS = "compare_and_swap"
    FAA = "fetch_and_add"
    SEND = "send"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ``==``; it is a C slot, where ``Enum.__hash__`` is a
    # Python frame per ``dict[opcode]`` lookup on the per-WR path.
    __hash__ = object.__hash__


# ``is_atomic`` is consulted per work request on the pipeline hot path;
# precompute it as a plain member attribute (enum members are
# singletons) instead of paying a property call per access.
for _op in Opcode:
    _op.is_atomic = _op in (Opcode.CAS, Opcode.FAA)
del _op


class CompletionStatus(enum.Enum):
    SUCCESS = "success"
    REMOTE_ACCESS_ERROR = "remote_access_error"
    LOCAL_ERROR = "local_error"
    #: Shed by the service plane (admission control / deadline): the op
    #: never reached the hardware, but still completes with this status —
    #: rejections are observable, never silent (see repro.tenancy).
    REJECTED = "rejected_by_service_plane"
    #: Transport retry count exhausted: the WR was retransmitted
    #: ``retry_cnt`` times without an ACK (packet loss, link down) and the
    #: QP moved to the ERR state, as ``IBV_WC_RETRY_EXC_ERR``.
    RETRY_EXC_ERR = "retry_exceeded"
    #: The WR was flushed off the send queue because the QP entered the
    #: ERR state before (or while) it executed, as ``IBV_WC_WR_FLUSH_ERR``.
    WR_FLUSH_ERR = "wr_flushed"


class Sge(namedtuple("Sge", ("mr", "offset", "length"))):
    """One scatter/gather element: a slice of a local memory region.

    An immutable ``(mr, offset, length)`` tuple, built once per WR on
    every hot path: the tuple keeps construction and field reads at
    tuple speed, and the constructor keeps the bounds check."""

    __slots__ = ()

    def __new__(cls, mr: "MemoryRegion", offset: int, length: int) -> "Sge":
        if offset < 0 or length < 0:
            raise ValueError(f"bad SGE slice: offset={offset}, length={length}")
        if offset + length > mr.size:
            raise ValueError(
                f"SGE [{offset}, {offset + length}) exceeds MR size {mr.size}")
        return tuple.__new__(cls, (mr, offset, length))


@dataclass(slots=True)
class WorkRequest:
    """A work queue entry, as posted to a QP's send queue.

    * WRITE: gather ``sgl`` locally, write contiguously at
      ``(remote_mr, remote_offset)``.
    * READ: read ``length`` bytes from the remote location, scatter into
      ``sgl`` (total SGE length must equal the read length).
    * CAS: 8-byte compare-and-swap at the remote location
      (``compare`` -> ``swap``); completion carries the *old* value.
    * FAA: 8-byte fetch-and-add of ``add``; completion carries the old value.
    * SEND: deliver ``payload`` (bytes and/or a Python object) to the
      peer's receive queue; requires the remote CPU to post/poll receives.
    """

    opcode: Opcode
    wr_id: int = 0
    sgl: list[Sge] = field(default_factory=list)
    remote_mr: Optional["MemoryRegion"] = None
    remote_offset: int = 0
    # atomics
    compare: int = 0
    swap: int = 0
    add: int = 0
    # SEND payload (object payloads model pre-serialized app messages)
    payload: Any = None
    payload_bytes: int = 0
    #: If False, the data path is timed but no bytes are actually copied —
    #: used by pure micro-benchmarks where content is irrelevant.
    move_data: bool = True
    #: Signaled WRs generate a CQE; unsignaled ones complete silently
    #: (selective signaling, a standard RDMA optimization).
    signaled: bool = True

    #: Derived at construction (and again by ``dataclasses.replace``):
    #: bytes the WR moves (SEND: ``payload_bytes``; CAS/FAA: 8; else the
    #: SGE lengths summed) and its SGE count (at least 1).  Nothing writes
    #: ``opcode``, ``sgl`` or ``payload_bytes`` after construction.
    total_length: int = field(init=False, repr=False, compare=False)
    n_sge: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        op = self.opcode
        sgl = self.sgl
        n = len(sgl)
        self.n_sge = n or 1
        if op is Opcode.SEND:
            self.total_length = self.payload_bytes
        elif op.is_atomic:
            self.total_length = 8
        elif n == 1:  # the overwhelmingly common single-SGE case
            self.total_length = sgl[0].length
        else:
            self.total_length = sum(sge.length for sge in sgl)

    def validate(self) -> None:
        if self.opcode.is_atomic:
            if self.remote_mr is None:
                raise ValueError("atomic WR requires a remote MR")
            if self.remote_offset % 8:
                raise ValueError("atomic WR must target an 8-byte aligned offset")
            return
        if self.opcode in (Opcode.WRITE, Opcode.READ):
            if self.remote_mr is None:
                raise ValueError(f"{self.opcode.name} WR requires a remote MR")
            if not self.sgl:
                raise ValueError(f"{self.opcode.name} WR requires at least one SGE")
            end = self.remote_offset + self.total_length
            if self.remote_offset < 0 or end > self.remote_mr.size:
                raise ValueError(
                    f"remote access [{self.remote_offset}, {end}) exceeds "
                    f"MR size {self.remote_mr.size}"
                )
        if self.opcode is Opcode.SEND and self.payload_bytes < 0:
            raise ValueError("negative SEND payload size")


class Completion(NamedTuple):
    """A completion-queue entry (an immutable named tuple: one is built
    per completed WR)."""

    wr_id: int
    opcode: Opcode
    status: CompletionStatus
    timestamp_ns: float
    #: Old value for atomics; received object for SEND-side receives.
    value: Any = None
    byte_len: int = 0
    #: Transport retransmissions this WR needed before completing (0 on
    #: the sunny path; > 0 only under injected loss faults).
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.status is CompletionStatus.SUCCESS


class CompletionError(RuntimeError):
    """A completion with a non-SUCCESS status, surfaced as an exception.

    Raised by ``Worker.wait(..., raise_on_error=True)`` so application
    code cannot silently treat an errored/flushed/rejected op as data.
    The failed :class:`Completion` rides along as ``.completion``.
    """

    def __init__(self, completion: "Completion"):
        super().__init__(
            f"work request {completion.wr_id} ({completion.opcode.value}) "
            f"completed with {completion.status.value}")
        self.completion = completion
