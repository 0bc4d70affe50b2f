"""Multi-tenant service plane between :mod:`repro.core` and
:mod:`repro.verbs`.

The paper's Section III-D observation — connection state explodes
all-to-all meshes and thrashes on-NIC SRAM — generalizes at datacenter
scale (RDMAvisor, Storm): simulated RNICs must be *shared*, fairly and
boundedly, by many clients.  This package is that sharing layer:

* :class:`ConnectionManager` — pooled, leased QPs per (tenant, machine
  pair), capped per tenant with LRU eviction of idle connections; live
  QP counts exert real SRAM pressure in :mod:`repro.hw.rnic`.
* :class:`QoSScheduler` — weighted fair queuing plus per-tenant token
  buckets in front of the RNIC execution units.
* :class:`AdmissionController` — bounded inflight windows, queue-depth
  backpressure, deadline load shedding; rejections complete with
  ``CompletionStatus.REJECTED``, never silently.
* :class:`SLOMetrics` — per-tenant ops, goodput, p50/p99/p999 latency
  and reject rates; tenant tags flow into Chrome-trace exports.
* :class:`ServicePlane` / :class:`TenantSession` — the glue, and a
  tenant's client thread (``execute`` and ``write`` over pooled QPs).

Quick start::

    from repro import build
    from repro.hw.params import ServiceConfig, TenantSpec
    from repro.tenancy import ServicePlane

    sim, cluster, ctx = build(machines=3)
    plane = ServicePlane(ctx, ServiceConfig(tenants=(
        TenantSpec("gold", weight=3), TenantSpec("bronze"))))
    sess = plane.session("gold", machine=1)
    # ... yield from sess.write(0, src=lmr[0:64], dst=rmr[0:64]) in a process
    print(plane.metrics.report())

Experiment: ``python -m repro.bench ext6_multitenant``.
"""

from repro.hw.params import ServiceConfig, TenantSpec
from repro.tenancy.admission import (
    REJECT_DEADLINE,
    REJECT_INFLIGHT,
    REJECT_QUEUE,
    AdmissionController,
)
from repro.tenancy.connections import ConnectionManager
from repro.tenancy.metrics import SLOMetrics, TenantSLO
from repro.tenancy.plane import ServicePlane, TenantSession
from repro.tenancy.qos import SERVICE_UNIT_BYTES, QoSScheduler

__all__ = [
    "AdmissionController",
    "ConnectionManager",
    "QoSScheduler",
    "REJECT_DEADLINE",
    "REJECT_INFLIGHT",
    "REJECT_QUEUE",
    "SERVICE_UNIT_BYTES",
    "SLOMetrics",
    "ServiceConfig",
    "ServicePlane",
    "TenantSLO",
    "TenantSession",
    "TenantSpec",
]
