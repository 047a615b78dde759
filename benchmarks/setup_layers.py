#!/usr/bin/env python3
"""Set-up layer table: where one workload's ``setup_s`` goes, layer by layer.

    python3 benchmarks/setup_layers.py --workload match_selective [--seed 1] [--scale 1.0]

Builds one end-to-end workload's network and standing population (the
phase ``benchmarks/e2e`` times as ``setup_s``) with the per-layer span
recorder of ``benchmarks/e2e/spans.py`` installed and its phase set to
``"setup"``, then prints per layer the calls, the self seconds and their
share of the traced set-up's wall time.  Time spent outside every
traced layer (network construction, the harness's own bookkeeping) is
its own row.  The wrappers cost time themselves, so the traced wall time
reads higher than an untraced ``setup_s``; compare tables only with each
other.  The workloads, the harness and the recorder are imported from
``benchmarks/e2e`` and used as they are.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402


def layer_table(name, seed, scale):
    """``(rows, wall seconds, unresolved targets)`` of one traced set-up.

    *rows* are ``(layer, calls, self seconds)``, largest self time first.
    """
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        recorder.phase = "setup"
        driver, wall_s = harness.set_up(make_workload(name, seed, scale), recorder)
        recorder.phase = "idle"
        driver.close()
    finally:
        recorder.uninstall()
    rows = [
        (layer, calls, self_ns / 1e9)
        for (phase, layer), (calls, _, self_ns) in recorder.totals.items()
        if phase == "setup"
    ]
    rows.sort(key=lambda row: -row[2])
    return rows, wall_s, recorder.unresolved


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same pinning as benchmarks/e2e/run.py: set and dict orders repeat.
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0"))
    rows, wall_s, unresolved = layer_table(args.workload, args.seed, args.scale)
    print(
        "{} seed {} scale {}: traced set-up {:.3f} s".format(
            args.workload, args.seed, args.scale, wall_s
        )
    )
    print("{:<32} {:>10} {:>10} {:>7}".format("layer", "calls", "self s", "share"))
    line = "{:<32} {:>10} {:>10.3f} {:>6.1f}%"
    for layer, calls, self_s in rows:
        print(line.format(layer, "{:,}".format(calls), self_s, 100 * self_s / wall_s))
    outside = wall_s - sum(row[2] for row in rows)
    print(line.format("outside every layer", "", outside, 100 * outside / wall_s))
    for target in unresolved:
        print("unresolved target: {}".format(target))
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
