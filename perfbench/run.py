"""Closed-loop benchmark of the tofdefog CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It imports the package from `src/` of the
same checkout, generates the workload's inputs from the seed, then runs
operations in a closed loop: one client, each operation starting when the
previous one returns, until S seconds have passed (at least one).  Every
operation's outputs are checked; a non-zero exit, an exception or a failed
check counts as a failed operation.

`--trace 0` reports the end-to-end metrics.  `--trace 1` then repeats the
same operations with every layer's public calls wrapped (see spans.py),
checks that their outputs hash equal to the untraced ones and that the
traced CG count equals the manifest's, and reports per-layer metrics.

Thread settings are read as found and never set: TOFDEFOG_THREADS and the
BLAS thread variables are recorded in the environment line.

Output: a table of every metric with its unit, the environment record,
then as the last line one JSON object with keys correct, attempted,
failed and metrics.  Full results (and spans, when traced) are written
to perfbench/out/.  Exit code 2 means the benchmark could not run.
"""

import time

# setup probes time a fresh process from here: package import plus warm-up
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_package():
    """Import tofdefog from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import tofdefog
    except ImportError as exc:
        raise SystemExit(f"benchmark error: cannot import tofdefog from {SRC}: {exc}") from exc
    if not os.path.abspath(tofdefog.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark error: tofdefog comes from {tofdefog.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", nargs=2, metavar=("FRAME", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_package()
    import bench

    if args.setup_probe:
        bench.probe_setup(args.workload, *args.setup_probe)
        print(time.perf_counter() - PROCESS_START)
        return 0
    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
