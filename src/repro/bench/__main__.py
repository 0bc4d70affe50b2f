"""CLI: ``python -m repro.bench <target> [--full] [--jobs N|auto]``.

Targets regenerate the paper's tables and figures; ``all`` runs every one
of them, ``summary`` reports the headline application speedups.  The
full catalog — what each target measures, its point counts, and the
right incantation — is docs/BENCHMARKS.md.

Every target runs as a *point campaign* (see :mod:`repro.bench.parallel`):
``--jobs N`` runs the sweep points on a **worker pool** forked once per
invocation (one pool serves every target of an ``all`` run) and fed one
point per message over pipes; ``--jobs auto`` uses every core.  The
merged tables are bit-identical to a serial run.  ``--seed N`` selects
an alternate deterministic campaign seed (0 = the paper default that the
committed digests pin).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import TARGETS


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.bench`` argument parser."""
    from repro.bench import parallel

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the tables/figures of 'Thinking More "
                    "about RDMA Memory Semantics' (CLUSTER 2021). "
                    "See docs/BENCHMARKS.md for the target catalog.")
    parser.add_argument("target", choices=sorted(TARGETS) + ["all"],
                        help="which table/figure to regenerate")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full sweep ranges "
                             "(slower; default is a trimmed quick mode)")
    parser.add_argument("--plot", action="store_true",
                        help="also draw the figure as a terminal plot")
    parser.add_argument("--jobs", type=parallel.jobs_arg, default="1",
                        metavar="N",
                        help="worker processes for sweep points "
                             "(an integer >= 1, or 'auto' for all cores)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed for all rig rngs (default 0 = "
                             "the paper runs; digests are pinned at 0)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each target and print the top-20 "
                             "functions by cumulative time (profiles this "
                             "process; combine with --jobs 1 to see "
                             "model internals)")
    return parser


def main(argv=None) -> int:
    from repro.bench import parallel

    args = build_parser().parse_args(argv)
    quick = not args.full

    targets = sorted(TARGETS) if args.target == "all" else [args.target]
    # One pool serves every campaign of this invocation: workers fork
    # once, import each target module once, then stream points.
    pool = parallel.WorkerPool(args.jobs) if args.jobs > 1 else None
    try:
        for name in targets:
            t0 = time.time()
            with parallel.profiled(name, enable=args.profile):
                result = parallel.run_campaign(
                    name, quick=quick, seed=args.seed, pool=pool)
            for i, fig in enumerate(result.figures):
                if i:
                    print()
                print(fig.to_text())
                if args.plot:
                    from repro.bench.plot import render
                    print()
                    print(render(fig))
            print(f"[{name} done in {time.time() - t0:.1f}s]\n")
    finally:
        if pool is not None:
            pool.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
