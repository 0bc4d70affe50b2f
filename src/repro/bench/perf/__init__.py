"""Performance-regression harness: what the model computes and how fast.

The repo's one baseline tool.  It times a fixed set of scenarios — a
pure engine-dispatch microbenchmark, the quick modes of representative
figure and table sweeps (figs 1, 4, 5, 8, 10, 18, tables 2–3, the
latency breakdown, ext 6–10), and ``sweep_parallel`` (the fig 1
campaign run serially and through a 4-worker pool; see
:mod:`repro.bench.parallel`) — and records, per scenario:

* ``wall_s`` — host wall-clock seconds,
* ``events`` — simulator events dispatched (``Simulator.total_events``
  delta across the scenario, summed over every short-lived simulator the
  sweep builds),
* ``events_per_sec`` — the headline fast-path throughput number,
* ``digest`` — a SHA-256 over the scenario's simulated *outputs* (figure
  series, final clock).  The simulator is deterministic, so the digest is
  machine-independent: any digest change means an engine or model change
  altered schedules, which the determinism contract
  (docs/PERFORMANCE.md) forbids for pure optimizations,
* ``table_digest`` — a SHA-256 of the rendered table text, which may
  never change; the cheap paper tables (``TABLE_ROWS``, full run only)
  are gated on it, their event counts and schedule digests,
* ``metrics`` (``sweep_parallel`` only) — wall-clock-derived campaign
  numbers, excluded from the digest: serial and 4-job points/sec,
  ``jobs4_speedup``, and the usable ``cores``.

Workflow::

    make perf            # run all scenarios, gate against BENCH_perf.json
    make perf-quick      # the smoke subset (includes sweep_parallel)
    make perf-update     # refresh the committed baseline on this machine

The gate fails when a scenario's events/sec drops more than
``DEFAULT_TOLERANCE`` (20%) below the committed baseline, when any
digest differs, or when ``jobs4_speedup`` lands below ``SPEEDUP_FLOOR``
(1.5×) on a machine with at least ``SPEEDUP_CORES`` (4) usable cores —
parallel campaigns must actually pay, not merely merge
deterministically.  Wall-clock numbers are machine-dependent — refresh
the baseline (``make perf-update``) when moving to different hardware;
the digests must survive the move unchanged.
"""

from repro.bench.perf.harness import (
    DEFAULT_TOLERANCE,
    SCENARIOS,
    SPEEDUP_CORES,
    SPEEDUP_FLOOR,
    check,
    load_baseline,
    main,
    run_scenarios,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "SCENARIOS",
    "SPEEDUP_CORES",
    "SPEEDUP_FLOOR",
    "check",
    "load_baseline",
    "main",
    "run_scenarios",
]
