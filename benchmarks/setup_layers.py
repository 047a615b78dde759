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

The recorder imports ``repro`` before the table starts, so the import
that ``Driver.__init__`` runs first inside the ``setup_s`` clock shows in
no row.  A line before the table gives it instead, measured in a fresh
interpreter: its seconds, the ``repro`` modules it loads, the RSS it
adds, and whether that interpreter writes bytecode (without cached
bytecode, ``repro`` compiles from source on every run).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402


#: What a fresh interpreter runs to time ``Driver.__init__``'s import of ``repro``.
COLD_IMPORT = """
import resource, sys, time
def resident():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize()
before = resident()
started = time.perf_counter()
from repro import MYLOC, MovementGraph, PubSubNetwork, UncertaintyPlan
from repro import balanced_tree_topology
seconds = time.perf_counter() - started
grown = resident() - before
modules = sum(1 for name in sys.modules if name.split(".")[0] == "repro")
print(seconds, modules, grown / 2**20, int(sys.dont_write_bytecode))
"""


def cold_import():
    """``(seconds, repro modules, RSS grown in MB, dont_write_bytecode)`` of the
    ``Driver``'s import of ``repro`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        timeout=60,
        check=True,
    )
    seconds, modules, grown_mb, no_bytecode = done.stdout.split()
    return float(seconds), int(modules), float(grown_mb), no_bytecode == b"1"


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
    seconds, modules, grown_mb, no_bytecode = cold_import()
    print(
        "cold import of repro (fresh interpreter, PYTHONDONTWRITEBYTECODE={}): "
        "{:.3f} s, {} repro modules, RSS +{:.2f} MB".format(
            int(no_bytecode), seconds, modules, grown_mb
        )
    )
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
