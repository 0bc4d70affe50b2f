"""CLI: ``python -m repro.bench <target> [--full] [--jobs N|auto]``.

Targets regenerate the paper's tables and figures; ``all`` runs every one
of them, ``summary`` reports the headline application speedups.  The
full catalog — what each target measures, its point counts, and the
right incantation — is docs/BENCHMARKS.md.

Sweep targets run as *point campaigns* (see :mod:`repro.bench.parallel`):
``--jobs N`` runs the sweep points on a **worker pool** forked once per
invocation (one pool serves every target of an ``all`` run) and fed one
point per message over pipes; ``--jobs auto`` uses every core.  The
merged tables are bit-identical to a serial run.  Point results are
cached under ``--cache DIR`` (default ``.bench-cache``) keyed by point
config + hardware params + package version, so re-running after
touching one figure module only recomputes that figure's points; the
cache is probed in this process, so a warm point never reaches a
worker.  ``--no-cache`` disables the cache.  ``--seed N`` selects an
alternate deterministic campaign seed (0 = the paper default that the
committed digests pin).
"""

from __future__ import annotations

import argparse
import importlib
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
    parser.add_argument("--quick", action="store_true",
                        help="trimmed quick mode (the default; explicit "
                             "flag for scripts)")
    parser.add_argument("--plot", action="store_true",
                        help="also draw the figure as a terminal plot")
    parser.add_argument("--jobs", type=parallel.jobs_arg, default="1",
                        metavar="N",
                        help="worker processes for sweep points "
                             "(an integer >= 1, or 'auto' for all cores)")
    parser.add_argument("--cache", default=parallel.DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="point-cache directory (default: "
                             f"{parallel.DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the point cache")
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
    from repro.bench.runner import set_campaign_seed

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.full and args.quick:
        parser.error("--full and --quick are mutually exclusive")
    cache_dir = None if args.no_cache else args.cache
    quick = not args.full
    set_campaign_seed(args.seed)

    targets = sorted(TARGETS) if args.target == "all" else [args.target]
    # One pool serves every campaign of this invocation: workers fork
    # once, import each target module once, then stream points.
    pool = parallel.WorkerPool(args.jobs) if args.jobs > 1 else None
    try:
        for name in targets:
            module = importlib.import_module(TARGETS[name])
            t0 = time.time()
            if parallel.point_capable(module):
                with parallel.profiled(name, enable=args.profile):
                    result = parallel.run_campaign(
                        name, quick=quick, jobs=args.jobs,
                        cache_dir=cache_dir, seed=args.seed, pool=pool)
                for i, fig in enumerate(result.figures):
                    if i:
                        print()
                    print(fig.to_text())
                    if args.plot:
                        from repro.bench.plot import render
                        print()
                        print(render(fig))
                stats = f" [{result.stats_line}]" if cache_dir else ""
                print(f"[{name} done in {time.time() - t0:.1f}s{stats}]\n")
                continue
            # Meta-targets (summary/breakdown/scorecard) aggregate other
            # modules' runs and stay on the serial path.
            if args.plot and hasattr(module, "run"):
                from repro.bench.plot import render
                with parallel.profiled(name, enable=args.profile):
                    fig = module.run(quick=quick)
                print(fig.to_text())
                print()
                print(render(fig))
            else:
                with parallel.profiled(name, enable=args.profile):
                    module.main(quick=quick)
            print(f"[{name} done in {time.time() - t0:.1f}s]\n")
    finally:
        if pool is not None:
            pool.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
