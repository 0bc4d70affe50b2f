"""Discrete-event simulation kernel.

A small, dependency-free DES engine in the style of SimPy: a
:class:`~repro.sim.engine.Simulator` owns a time-ordered event heap,
*processes* are Python generators that ``yield`` events (timeouts, other
processes, resource grants, store gets/puts), and resources model contended
hardware (RNIC execution units, PCIe links, memory controllers).

Time is measured in **nanoseconds** (floats) throughout the project.
"""

from repro.sim.engine import (
    AllOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.channels import Channel
from repro.sim.rng import make_rng, spawn_rngs
from repro.sim.stats import (
    StatAccumulator,
    percentile,
    percentiles,
)

__all__ = [
    "AllOf",
    "Channel",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "StatAccumulator",
    "Store",
    "Timeout",
    "make_rng",
    "percentile",
    "percentiles",
    "spawn_rngs",
]
