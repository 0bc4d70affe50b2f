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
  sweep builds; entries the engine runs in place from its tail slot are
  not dispatched and not counted),
* ``events_per_sec`` — the headline fast-path throughput number: every
  dispatch, heap and in place, per wall second,
* ``digest`` — a SHA-256 over the scenario's simulated *outputs* (figure
  series, final clock).  The simulator is deterministic, so the digest is
  machine-independent: any digest change means an engine or model change
  altered schedules, which the determinism contract
  (docs/PERFORMANCE.md) forbids for pure optimizations,
* ``table_digest`` — a SHA-256 of the rendered table text, which may
  never change; the cheap paper tables (``TABLE_ROWS``, full run only)
  are gated on it, their event counts and schedule digests,
* ``completions_digest`` — (``make perf`` only, on scenarios that
  complete verbs ops) a SHA-256 over every simulator's completion
  digest from :mod:`repro.check.differential`, taken in the census's
  untimed event-counting run; it may never change either,
* ``metrics`` — numbers excluded from the digest.  Every scenario that
  completes verbs ops (``repro.verbs.qp.tally``) records
  ``events_per_op`` and ``cycles_per_op``
  (objects one collection finds in cycles at the scenario's end, per
  completed op), both gated against a rise, ``express_frac`` (the share
  of completed ops the express lane booked), gated against a fall, and
  ``in_place_per_op``, recorded but not gated.  ``make perf`` runs each
  scenario once more, untimed, and records its tracemalloc peak as
  ``traced_peak_kb``, gated against a rise, and twice more under the
  census to record ``events_by_layer`` and ``calls_by_layer``, each
  layer gated against a rise; ``sweep_parallel`` adds
  wall-clock-derived campaign numbers: serial and 4-job points/sec,
  ``jobs4_speedup``, and the usable ``cores``.

Workflow::

    make perf            # run all scenarios, gate against BENCH_perf.json
    make perf-quick      # the smoke subset (includes sweep_parallel)
    make perf-update     # refresh the committed baseline on this machine
    python -m repro.bench.perf census fig5 ext7  # events, calls/op by layer

The gate fails when a scenario's events/sec drops more than
``DEFAULT_TOLERANCE`` (20%) below the committed baseline, when any
digest differs, when events or cycles per op, the traced peak, or any
layer's events or calls per op rise, when ``express_frac`` falls, or when ``jobs4_speedup`` lands below
``SPEEDUP_FLOOR``
(1.5×) on a machine with at least ``SPEEDUP_CORES`` (4) usable cores —
parallel campaigns must actually pay, not merely merge
deterministically.  Wall-clock numbers are machine-dependent — refresh
the baseline (``make perf-update``) when moving to different hardware;
the digests must survive the move unchanged.

The census (:mod:`repro.bench.perf.census`) splits a scenario's events
per op, and its in-place runs, by the layer of the code that scheduled
them, counts Python calls per op by layer in a separate ``cProfile``
run, and prints lane coverage by stepped reason and the traced peak.
The printout is informational; the per-layer rows ``make perf`` gates
come from the same counters (``census.layer_rows``).
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
