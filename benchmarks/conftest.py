"""Shared plumbing for the pytest-benchmark harness.

Every ``test_bench_*`` benchmark runs one bench target's point campaign
(``repro.bench.parallel.run_campaign``, quick mode, inline)
through the ``campaign`` fixture.  The simulator is deterministic, so a
single round is exact; pedantic mode keeps pytest-benchmark from
re-running multi-second sweeps.
"""

import pytest


@pytest.fixture()
def once(benchmark):
    """Run a callable exactly once under the benchmark clock."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return _run


@pytest.fixture()
def campaign(once):
    """Run one bench target's campaign exactly once under the benchmark
    clock; returns its figures."""

    def _run(target):
        from repro.bench.parallel import run_campaign
        return once(run_campaign, target).figures

    return _run
