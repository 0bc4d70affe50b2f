"""Fault and perturbation injection.

Real clusters are not uniform: a port behind a mis-trained link, a
thermally throttled PCIe slot, or a noisy neighbour shows up as a slow or
jittery NIC.  The injector degrades individual :class:`RnicPort`s —
multiplicative slowdown and/or additive jitter on every occupancy — so
the tail behaviour of the applications (shuffle stragglers, lock
fairness under asymmetry) can be studied and tested.

Beyond performance faults, the injector models *loss* faults, which the
RC transport (both lanes: :mod:`repro.verbs.qp` and
:mod:`repro.verbs.express`) turns into retransmissions,
``RETRY_EXC_ERR`` completions, and QP error flushes:

* :meth:`FaultInjector.drop_port` — i.i.d. packet loss at a probability;
* :meth:`FaultInjector.blackhole_port` — 100% loss for a window (a
  mis-programmed forwarding rule, a dying transceiver);
* :meth:`FaultInjector.port_down` / :meth:`FaultInjector.port_up` — hard
  link state, for failover studies.

Fabric links (:class:`repro.hw.fabric.Link`, the cables *between*
switches on multi-switch topologies) fail independently of NIC ports:

* :meth:`FaultInjector.drop_link` — i.i.d. packet loss on one link;
* :meth:`FaultInjector.degrade_link` — bandwidth cut (a flapping optic
  renegotiated to a lower rate): queues build and drain slower;
* :meth:`FaultInjector.link_down` / :meth:`FaultInjector.link_up` —
  hard state; every packet routed over the dead link is dropped, which
  the requesters recover from by re-salting their ECMP hash per
  retransmission — the chaos scenario in ``make check`` kills a spine
  link and watches traffic route around it.

Faults heal by kind: a scheduled heal removes only the fault it was
scheduled with, never an unrelated injection on the same port or link.
Injection is off by default and costs nothing when unused.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.hw.fabric import Link
from repro.hw.rnic import RnicPort
from repro.sim import Simulator

__all__ = ["FaultInjector"]


class FaultInjector:
    """Degrades ports and fabric links; restores them on demand or on a
    schedule."""

    def __init__(self, sim: Simulator,
                 rng: Optional[np.random.Generator] = None):
        self.sim = sim
        self.rng = rng
        #: id(target) -> (target, set of active fault kinds).  Targets are
        #: RnicPorts (kinds "slow" / "jitter" / "drop" / "blackhole" /
        #: "down") or fabric Links (kinds "link_drop" / "link_degrade" /
        #: "link_down").
        self._afflicted: dict[int, tuple[Union[RnicPort, Link], set[str]]] = {}

    def _afflict(self, port: Union[RnicPort, Link], kind: str,
                 duration_ns: Optional[float]) -> None:
        entry = self._afflicted.get(id(port))
        if entry is None:
            entry = (port, set())
            self._afflicted[id(port)] = entry
        entry[1].add(kind)
        if duration_ns is not None:
            if duration_ns <= 0:
                raise ValueError("duration must be positive")
            self.sim.timeout(duration_ns).add_callback(
                lambda _e, p=port, k=kind: self._heal(p, {k}))

    def slow_port(self, port: RnicPort, factor: float,
                  duration_ns: Optional[float] = None) -> None:
        """Scale every occupancy of ``port`` by ``factor`` (>= 1).

        With ``duration_ns`` the slowdown heals automatically — only the
        slowdown: jitter injected independently on the same port stays.
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1: {factor}")
        port.slowdown = factor
        self._afflict(port, "slow", duration_ns)

    def jitter_port(self, port: RnicPort, max_extra_ns: float,
                    duration_ns: Optional[float] = None) -> None:
        """Add uniform random [0, max_extra_ns) to every occupancy.

        With ``duration_ns`` the jitter heals automatically, leaving any
        independently injected slowdown in place.
        """
        if max_extra_ns < 0:
            raise ValueError(f"negative jitter: {max_extra_ns}")
        if self.rng is None:
            raise ValueError("jitter requires an rng")
        port.jitter_rng = self.rng
        port.jitter_max_ns = max_extra_ns
        self._afflict(port, "jitter", duration_ns)

    # -- loss faults (consumed by the RC transport in repro.verbs.qp) -------
    def drop_port(self, port: RnicPort, prob: float,
                  duration_ns: Optional[float] = None) -> None:
        """Drop each packet through ``port`` i.i.d. with ``prob``.

        Every lost packet costs the requester a transport timeout and a
        retransmission; at ``retry_cnt`` losses in a row the WR fails with
        ``RETRY_EXC_ERR``.  Requires an rng (the draws must be seeded so
        loss schedules are reproducible).
        """
        if not 0.0 < prob <= 1.0:
            raise ValueError(f"drop probability must be in (0, 1]: {prob}")
        if self.rng is None:
            raise ValueError("drop_port requires an rng")
        port.loss_rng = self.rng
        port.loss_prob = prob
        self._afflict(port, "drop", duration_ns)

    def blackhole_port(self, port: RnicPort,
                       duration_ns: Optional[float] = None) -> None:
        """Silently discard *all* traffic through ``port``.

        Unlike :meth:`port_down` this is meant to be transient — pass
        ``duration_ns`` and the window heals itself, leaving any
        independently injected probabilistic drop in place.
        """
        port.link_up = False
        self._afflict(port, "blackhole", duration_ns)

    def port_down(self, port: RnicPort) -> None:
        """Take the link down until :meth:`port_up` (or a heal)."""
        port.link_up = False
        self._afflict(port, "down", None)

    def port_up(self, port: RnicPort) -> None:
        """Bring a downed link back (heals only the "down" fault)."""
        self._heal(port, {"down"})

    # -- fabric-link faults (multi-switch topologies, repro.hw.fabric) -------
    def drop_link(self, link: Link, prob: float,
                  duration_ns: Optional[float] = None) -> None:
        """Drop each packet crossing ``link`` i.i.d. with ``prob``.

        Like :meth:`drop_port` but scoped to one fabric hop, so only the
        flows ECMP pinned onto this link suffer — their retransmissions
        re-salt the hash and (usually) route around it.
        """
        if not 0.0 < prob <= 1.0:
            raise ValueError(f"drop probability must be in (0, 1]: {prob}")
        if self.rng is None:
            raise ValueError("drop_link requires an rng")
        link.loss_rng = self.rng
        link.loss_prob = prob
        self._afflict(link, "link_drop", duration_ns)

    def degrade_link(self, link: Link, factor: float,
                     duration_ns: Optional[float] = None) -> None:
        """Cut ``link``'s bandwidth to ``factor`` of nominal (0 < f < 1).

        A flapping optic renegotiated to a lower rate: packets serialize
        slower, the queue builds at the same arrival rate, ECN fires
        earlier in wall-clock terms, and overflow tail-drops.
        """
        if not 0.0 < factor < 1.0:
            raise ValueError(
                f"degrade factor must be in (0, 1): {factor}")
        link.degrade_factor = factor
        self._afflict(link, "link_degrade", duration_ns)

    def link_down(self, link: Link,
                  duration_ns: Optional[float] = None) -> None:
        """Kill a fabric link: everything routed over it is dropped until
        :meth:`link_up` (or the scheduled heal)."""
        link.up = False
        self._afflict(link, "link_down", duration_ns)

    def link_up(self, link: Link) -> None:
        """Bring a dead fabric link back (heals only "link_down")."""
        self._heal(link, {"link_down"})

    def _heal(self, port: Union[RnicPort, Link],
              kinds: Optional[set[str]] = None) -> None:
        """Heal ``kinds`` (default: every fault) on ``port`` — and only
        those, so a scheduled heal never wipes an unrelated injection."""
        entry = self._afflicted.get(id(port))
        if entry is None:
            return
        for kind in (entry[1] & kinds) if kinds is not None else set(entry[1]):
            if kind == "slow":
                port.slowdown = 1.0
            elif kind == "jitter":
                port.jitter_rng = None
                port.jitter_max_ns = 0.0
            elif kind == "drop":
                port.loss_prob = 0.0
                port.loss_rng = None
            elif kind == "link_drop":
                port.loss_prob = 0.0
                port.loss_rng = None
            elif kind == "link_degrade":
                port.degrade_factor = 1.0
            elif kind == "link_down":
                port.up = True
            else:  # "blackhole" / "down" — link comes back only when
                entry[1].discard(kind)  # ...no other link fault remains.
                if not entry[1] & {"blackhole", "down"}:
                    port.link_up = True
            entry[1].discard(kind)
        if not entry[1]:
            del self._afflicted[id(port)]

    def heal_all(self) -> None:
        for port, _kinds in list(self._afflicted.values()):
            self._heal(port)

    @property
    def afflicted_count(self) -> int:
        """Ports and fabric links with at least one active fault."""
        return len(self._afflicted)
