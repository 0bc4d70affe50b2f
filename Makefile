# Convenience targets for the reproduction repository.

PY ?= python

.PHONY: install test lint lint-docs docs-check smoke check chaos bench microbench figures figures-full scorecard experiments clean \
	check-all perf perf-gate perf-quick perf-update e2e rss-ab host-ab funcov

install:
	pip install -e .

test:
	$(PY) -m pytest tests/

# Static checks (configured in pyproject.toml) over src AND tests /
# benchmarks / examples / tools.  Without ruff, fall back to
# byte-compiling the same trees so lint never silently becomes a no-op.
lint:
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src tests benchmarks examples tools \
		|| { echo "ruff not installed; falling back to compileall"; \
		     $(PY) -m compileall -q src tests benchmarks examples tools; }

# Docs hygiene: dead file references in docs/ README.md examples/
# (tools/lint_docs.py).
lint-docs:
	$(PY) tools/lint_docs.py

# lint-docs plus the benchmark-catalog cross-check: docs/BENCHMARKS.md
# must carry exactly one row per repro.bench.TARGETS entry.
docs-check:
	$(PY) tools/lint_docs.py --catalog

# Fast end-to-end sanity: build the model, run the quickstart example,
# gate the simulator fast path (engine microbench + fig5 + ext8 txn +
# ext9 fabric incast + ext10 open-loop serving + the worker-pool campaign
# scenario) against the committed perf baseline, run the check suite
# (every checker over the fault soaks and the smoke targets, on the
# express lane and on the stepped reference), hold the end-to-end
# workloads to their seed-0 output pins, and keep the docs honest (dead
# links, benchmark catalog).
smoke: perf-quick check e2e docs-check
	PYTHONPATH=src $(PY) examples/quickstart.py

# Peak-RSS A/B (~2 min): ten alternating benchmarks/e2e/rep.py pairs of
# verbs_mix at scale 0.25, HEAD against the working tree, from two clean
# git-archive copies; fails if a pair's digest differs or a side's event
# count changes from rep to rep, and prints each side's events_per_op
# (tools/rss_ab.py --help for other revisions, workloads and scales).
rss-ab:
	$(PY) tools/rss_ab.py

# Host-throughput A/B (~10 min): the same tool on serve_bursty at scale
# 0.25, ten pairs; prints each metric's wins and a verdict line (a gain
# needs >= 9/10 wins and a median gap beyond the base's IQR), then each
# side's events_per_op, which may differ when the change removes events.
host-ab:
	$(PY) tools/rss_ab.py --workload serve_bursty --pairs 10

# End-to-end benchmark self-tests (benchmarks/e2e, ~20 s): the four
# workloads at scale 0.02 must reproduce their seed-0 digests in
# benchmarks/e2e/pins.json — the output-neutrality oracle for any
# simulator change — plus the traced-equals-untraced ledger checks.
e2e:
	PYTHONPATH=src $(PY) -m pytest benchmarks/e2e -q

# Invariant check suite (docs/CHECKING.md, ~50 s): every repro.check
# checker, installed as each simulator is built, over the hand-built
# scenarios (hashtable plus the chaos, txn, fabric and serving fault
# soaks) and repro.check.runner.SMOKE_TARGETS, each run on the stepped
# reference and on the express lane through repro.check.differential.
# After a unit returns, every simulator runs 10 ms more; work still
# pending is a liveness violation.  Fails on any violation, or when the
# lanes differ in violations, completion digests (naming the first
# differing completion) or rendered text; stops at the first failing
# unit.  Why each smoke target is here: ext7 (loss, blackhole,
# RETRY_EXC, flushes and reconnects), fig5, fig1 (the catalog target
# where the most tail wakes find their instant taken and keep their
# wake), breakdown (traced QPs), fig10 (RPC lock and sequencer: the
# catalog's most SENDs), ext2 (symmetric ports: ~10.7k signaled WRITEs
# whose ACK wire and CQE DMA share one wake on each lane), ext8_txn
# (same-instant ties on hot atomic word locks), ext1 (the READ mix: READ
# rx and response-tx holds under contention), fig15 and fig16 (cut-
# through WRITE pairs whose first-ending half continues at its grant;
# doing so for both halves without keying the ACK wake diverged there;
# they also replace the shuffle and join scenarios), ext6_multitenant,
# fig4, fig18 and table3 (data-less WRITEs whose service halves both
# continue at their grants and key their ACK or CQE wake after the
# later end), ext10_open_loop (the only target that contends for the
# front door's write gate, the one untimed Resource.hold outside the
# lane), ext9_fabric_scale (the only target with queued fabric hops,
# tail drops, ECN marks and DCQCN rate cuts) and fig19 (the distributed
# log's sequencer: it replaces the dlog scenario).
check:
	PYTHONPATH=src $(PY) -m repro.check

# The whole check suite (~2.5 min on a 2-core box, not part of smoke):
# every scenario and all 30 bench targets, as in `check`.
check-all:
	PYTHONPATH=src $(PY) -m repro.check all

# Fast-path performance gate (see docs/PERFORMANCE.md): times the engine
# dispatch microbenchmark and the figure/ext quick sweeps, then fails on
# a >20% events/sec drop, ANY table-digest change, an events/op rise, or
# a schedule-digest change vs the committed BENCH_perf.json (legitimate
# only for deliberate event-elision changes — refresh with perf-update).
perf:
	PYTHONPATH=src $(PY) -m repro.bench.perf check

# Alias kept as the canonical CI entry point for the digest + events/op
# regression gate.
perf-gate: perf

# --quick gates the starred scenarios — including sweep_parallel, which
# runs fig1 serially and on a 4-worker pool, fails unless the two merged
# figure digests match, prints the worker-pool metrics block (serial and
# 4-job points/sec, jobs4_speedup, cores) and fails if jobs4_speedup
# lands below the 1.5x floor on a >=4-core machine.  Every target's
# pooled-vs-serial merge is checked in tier-1
# (tests/test_bench_parallel.py).
perf-quick:
	PYTHONPATH=src $(PY) -m repro.bench.perf check --quick

# Refresh the committed baseline (new machine, or a deliberate model
# change that moved schedules).
perf-update:
	PYTHONPATH=src $(PY) -m repro.bench.perf update

# Fault-injection test subset: the reliability layer end-to-end (loss,
# retransmission, QP error flushes, reconnect/failover) plus the
# performance-fault injector.
chaos:
	PYTHONPATH=src $(PY) -m pytest tests/test_reliability.py tests/test_hw_faults.py -q

# Function census (~10 min on a 2-core box, not part of smoke): runs
# tier-1 under cProfile and lists every function under src/repro it
# never calls, then profiles the product's own traffic (every bench
# target, the check suite, the e2e workloads, the examples and the
# ablation benches) and lists every function none of it reaches, each
# with its totals, then the docs/PAPER_MAP.md-cited units it never
# reaches (tools/funcov.py).  Forked pool workers are not seen, so
# check each hit by hand before deleting it.
funcov:
	PYTHONPATH=src $(PY) tools/funcov.py

# Full figure campaign, fanned out over one worker pool on every core —
# merged tables are bit-identical to --jobs 1.
bench:
	$(PY) -m repro.bench all --jobs auto

# pytest-benchmark microbenchmarks of individual model layers.
microbench:
	$(PY) -m pytest benchmarks/ --benchmark-only

figures:
	$(PY) -m repro.bench all --jobs auto

figures-full:
	$(PY) -m repro.bench all --full --jobs auto

scorecard:
	$(PY) -m repro.bench scorecard

# Regenerate the paper-vs-measured record from scratch (full sweeps).
experiments:
	$(PY) -m repro.bench.experiments_md --full > EXPERIMENTS.md

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks build *.egg-info src/*.egg-info
