"""The paper's contribution as a reusable library.

Five families of memory-semantic optimizations (Sections III-A..III-E),
each usable directly against the verbs layer:

* :mod:`repro.core.batching` — vector IO: ``SP``, ``Doorbell``, ``SGL``
  (Algorithm 1 of the paper) behind one :class:`BatchStrategy` interface.
* :mod:`repro.core.consolidation` — IO consolidation: a remote burst buffer
  that merges θ small writes to one aligned block into one RDMA op.
* :mod:`repro.core.numa_aware` — the proxy-socket router and the
  connection-mesh builders.
* :mod:`repro.core.locks` / :mod:`repro.core.sequencer` — local, remote
  (one-sided atomic), and RPC-based coordination primitives, including the
  exponential-backoff remote spinlock.
* :mod:`repro.core.access` — sequential/random remote access pattern
  tooling (the Section III-B study).
* :mod:`repro.core.rpc` — the two-sided Send/Recv RPC substrate used as
  the comparison baseline.
* :mod:`repro.core.advisor` — the paper's guidelines, executable: given a
  workload profile, recommend techniques with model-predicted gains.
"""

from repro.core.batching import (
    BatchEntry,
    BatchStrategy,
    DoorbellBatcher,
    SglBatcher,
    SpBatcher,
    make_batcher,
)
from repro.core.consolidation import IoConsolidator
from repro.core.numa_aware import (
    ConnectionMesh,
    ProxySocketRouter,
)
from repro.core.locks import (
    BackoffPolicy,
    LocalSpinLock,
    RemoteSpinLock,
    RpcSpinLock,
)
from repro.core.sequencer import LocalSequencer, RemoteSequencer, RpcSequencer
from repro.core.access import PatternGenerator, RemoteAccessRunner
from repro.core.replication import RemoteMirror, Replica
from repro.core.rpc import RpcChannel, RpcServer
from repro.core.advisor import Advisor, Recommendation, WorkloadProfile

__all__ = [
    "Advisor",
    "BackoffPolicy",
    "BatchEntry",
    "BatchStrategy",
    "ConnectionMesh",
    "DoorbellBatcher",
    "IoConsolidator",
    "LocalSequencer",
    "LocalSpinLock",
    "PatternGenerator",
    "ProxySocketRouter",
    "Recommendation",
    "RemoteAccessRunner",
    "RemoteMirror",
    "RemoteSequencer",
    "RemoteSpinLock",
    "Replica",
    "RpcChannel",
    "RpcSequencer",
    "RpcServer",
    "RpcSpinLock",
    "SglBatcher",
    "SpBatcher",
    "WorkloadProfile",
    "make_batcher",
]
