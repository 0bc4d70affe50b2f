"""One benchmark rep in a fresh process: set up, run, check, report.

``run.py`` starts this script once per rep, one at a time.  It prints
one JSON object: the rep's host measurements, simulated outputs, output
digest and invariant violations (and, with ``--trace 1``, the per-layer
ledger).  Set-up time is counted from the first line of this file, so it
includes importing ``repro``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def _import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")


def measure(workload: str, seed: int, scale: float, trace: bool,
            trace_out: str = "") -> dict:
    """Build, run and check one workload; returns the rep's record."""
    import ledger
    import workloads

    led = ledger.Ledger().install() if trace else None
    try:
        rig = workloads.build_workload(workload, seed, scale)
        setup_s = time.perf_counter() - T_START
        t0 = time.perf_counter()
        if led is not None:
            led.profile(rig.run)
        else:
            rig.run()
        run_s = time.perf_counter() - t0
    finally:
        if led is not None:
            led.uninstall()
    rec = rig.result()
    rec.update(
        workload=workload, seed=seed, scale=scale, traced=trace,
        setup_s=setup_s, run_s=run_s,
        host_ops_per_s=rec["attempted"] / run_s,
        events_per_op=rec["events"] / rec["wrs"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if led is not None:
        rec["layers"] = led.metrics(rec["wrs"])
        if trace_out:
            with open(trace_out, "w") as fh:
                json.dump(led.chrome_trace(workload), fh)
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    _import_repro()
    rec = measure(args.workload, args.seed, args.scale, bool(args.trace),
                  args.trace_out)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
