#!/usr/bin/env python3
"""Residency census: what each ``repro`` module keeps alive per routing row.

    python3 benchmarks/residency.py --workload churn_mixed [--seed 1] [--scale 1.0] [--lines N]

Runs the set-up and the warm-up cycle of one end-to-end workload (the
fixed amount of work after which ``benchmarks/e2e`` reads ``peak_rss_mb``)
under ``tracemalloc``, then prints the live bytes allocated by each
``repro`` module, in total and per subscription routing row over all
brokers, and the process's ``ru_maxrss``.  ``--lines N`` adds the N
largest ``repro`` allocation sites (file:line, live bytes, live blocks,
bytes per routing row), so a memory claim can name the structures, not
just the modules.  ``tracemalloc`` keeps its own
bookkeeping, so ``ru_maxrss`` here reads higher than in an untraced run;
compare it only with other census runs.  The workloads and the harness
are imported from ``benchmarks/e2e`` and used as they are.
"""

import argparse
import os
import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

# Imported before the census starts, so module set-up is not counted.
import repro  # noqa: E402, F401


def census(name, seed, scale):
    """Live ``repro`` allocations after set-up plus warm-up, and the row count.

    Returns the per-module byte totals, the per-line statistics (largest
    first) and the number of subscription routing rows.
    """
    tracemalloc.start()
    try:
        driver, _ = harness.set_up(make_workload(name, seed, scale))
        harness.warm_up(driver)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    rows = sum(driver.network.routing_table_sizes().values())
    driver.close()
    ours = snapshot.filter_traces([tracemalloc.Filter(True, "*/repro/*")])
    modules = {}
    for statistic in ours.statistics("filename"):
        path = statistic.traceback[0].filename
        module = path[path.rindex("repro" + os.sep) :]
        modules[module] = modules.get(module, 0) + statistic.size
    return modules, ours.statistics("lineno"), rows


def _site(frame):
    """``repro/<path>:<line>`` of an allocation site."""
    path = frame.filename
    return "{}:{}".format(path[path.rindex("repro" + os.sep) :], frame.lineno)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--lines", type=int, default=0, metavar="N", help="also list the N largest allocation sites"
    )
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same pinning as benchmarks/e2e/run.py: set and dict orders repeat.
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0"))
    modules, lines, rows = census(args.workload, args.seed, args.scale)
    total = sum(modules.values())
    print(
        "{} seed {} scale {}: {:,} routing rows".format(args.workload, args.seed, args.scale, rows)
    )
    print("{:<40} {:>12} {:>10}".format("module", "bytes", "B/row"))
    for module, size in sorted(modules.items(), key=lambda item: -item[1]):
        print("{:<40} {:>12,} {:>10,.0f}".format(module, size, size / max(rows, 1)))
    print("{:<40} {:>12,} {:>10,.0f}".format("total repro", total, total / max(rows, 1)))
    if args.lines > 0:
        print()
        print("{:<52} {:>12} {:>8} {:>8}".format("allocation site", "bytes", "blocks", "B/row"))
        for statistic in lines[: args.lines]:
            print(
                "{:<52} {:>12,} {:>8,} {:>8,.0f}".format(
                    _site(statistic.traceback[0]),
                    statistic.size,
                    statistic.count,
                    statistic.size / max(rows, 1),
                )
            )
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("ru_maxrss (tracemalloc on) {:.1f} MB".format(maxrss_mb))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
