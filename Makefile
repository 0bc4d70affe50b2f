# Convenience targets for the reproduction repository.

PY ?= python

.PHONY: install test lint lint-docs docs-check smoke check chaos bench microbench figures figures-full scorecard experiments clean \
	perf perf-gate perf-quick perf-update e2e express-ab rss-ab host-ab

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
# scenario) against the committed perf baseline, run the invariant-check
# suite, hold the end-to-end workloads to their seed-0 output pins, check
# the express lane against the stepped lane, and keep the docs honest
# (dead links, benchmark catalog).
smoke: perf-quick check e2e express-ab docs-check
	PYTHONPATH=src $(PY) examples/quickstart.py

# Express-lane A/B (~25 s): ext7 (loss, blackhole, RETRY_EXC, flushes and
# reconnects), fig5, fig1 (the catalog target where the most tail wakes
# find their instant taken and keep their wake), breakdown (traced QPs),
# fig10 (RPC lock and sequencer: the catalog's most SENDs), ext2
# (symmetric ports: ~10.7k signaled WRITEs whose ACK wire and CQE DMA
# share one wake on each lane), ext8_txn (same-instant ties on hot
# atomic word locks) and ext1 (the READ mix: READ rx and response-tx
# leases under contention) must render byte-identical tables, and
# equal completion digests for every simulator, with the lane on and
# off (tools/express_ab.py through repro.check.differential, which names
# the first differing completion on a digest mismatch; no arguments runs
# the full catalog).
express-ab:
	PYTHONPATH=src $(PY) tools/express_ab.py ext7_fault_recovery fig5 fig1 breakdown fig10 ext2 ext8_txn ext1

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

# Invariant sanitizer suite (docs/CHECKING.md): the four applications, an
# ext7-style fault-injection scenario, and a contended OCC transaction
# soak under loss chaos, with every repro.check checker enabled, each run
# on the stepped pipeline and on the express lane; fails on any reported
# violation or when the lanes differ in violations or completion digest.
check:
	PYTHONPATH=src $(PY) -m repro.check

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
# prints the worker-pool metrics block (serial and 4-job points/sec,
# jobs4_speedup, cores) and fails if jobs4_speedup lands below the
# 1.5x floor on a >=4-core machine.  The following lines
# additionally prove the campaign runner merges deterministically
# (serial vs --jobs N figure digests must match; exits non-zero
# otherwise) — fig5 for the paper path, ext9 for the fabric path,
# ext10 for the open-loop serving tier.
perf-quick:
	PYTHONPATH=src $(PY) -m repro.bench.perf check --quick
	PYTHONPATH=src $(PY) -m repro.bench.parallel fig5 --jobs 2
	PYTHONPATH=src $(PY) -m repro.bench.parallel ext9_fabric_scale --jobs 4
	PYTHONPATH=src $(PY) -m repro.bench.parallel ext10_open_loop --jobs 4

# Refresh the committed baseline (new machine, or a deliberate model
# change that moved schedules).
perf-update:
	PYTHONPATH=src $(PY) -m repro.bench.perf update

# Fault-injection test subset: the reliability layer end-to-end (loss,
# retransmission, QP error flushes, reconnect/failover) plus the
# performance-fault injector.
chaos:
	PYTHONPATH=src $(PY) -m pytest tests/test_reliability.py tests/test_hw_faults.py -q

# Full figure campaign, fanned out over every core with the point cache
# on (.bench-cache/) — merged tables are bit-identical to --jobs 1.
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
