#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark, with verdicts.

    python3 benchmarks/pairs.py --base REF [--change REF] [--workload W ...]
                                [--pairs 10] [--seed 1]

Each side is the committed tree of a git ref, unpacked with ``git archive``
into a temporary directory.  ``--change`` defaults to the working tree the
script runs from, copied into the temporary directory alike: its tracked
files that still exist plus its untracked, unignored ones.  So neither
side runs from the repository itself.  Pair ``i`` runs
``benchmarks/e2e/run.py --workload W --seed SEED+i --trace 0`` once on
each side, for the ``run_seconds`` that ``BENCHMARK.json`` fixes, the
base first on even ``i`` and the change first on odd ``i``, each child
pinned to one core.  The script reads the result line and the wall-clock block of each run, plus
the child's user CPU seconds, and prints per metric the per-seed values,
both medians, the base's interquartile range, the change's wins and a
verdict:

* ``claim met`` — the change won at least 9 of every 10 pairs (ties count
  for neither side) and its median is better by more than the base's
  interquartile range;
* ``regressed`` — a gated metric's median is worse by more than its
  ``BENCHMARK.json`` bound, or the base meets the claim rule on a
  reported one;
* ``within bound`` — a gated metric neither regressed nor spread wider
  than its bound;
* ``unresolved`` — everything else.

The exit code is non-zero when a run fails its delivery oracle; a run
that crashes stops the script with the tail of its standard error.
Run it with the same ref on both sides (an A/A run) before trusting a
claim: it must report no ``claim met``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Reported, not gated: the wall-clock block on standard error, then CPU time.
REPORTED = tuple(
    (entry["name"][len("e2e.") :], entry["better"])
    for entry in SPEC["per_layer"]
    if entry["name"].startswith("e2e.")
) + (("cpu_user_s", "lower"),)


def checkout(ref, into):
    """A directory under *into* holding *ref*'s committed tree (``None``: this working tree)."""
    target = Path(into) / (ref or "working-tree").replace("/", "_")
    target.mkdir()
    if ref is None:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            check=True,
        )
        for name in sorted(set(listed.stdout.decode().split("\0")) - {""}):
            source = ROOT / name
            if source.is_file():  # a tracked file deleted from the working tree is not
                (target / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, target / name)
        return target
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        stdout=subprocess.PIPE,
        check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)
    return target


def parse_run(stdout, stderr):
    """``({metric: value}, failed)`` from one ``run.py`` run's output."""
    result = json.loads(stdout.strip().splitlines()[-1])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    for line in stderr.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0] in dict(REPORTED):
            values[fields[0]] = float(fields[1])
    return values, result["failed"]


class RunFailed(RuntimeError):
    """A ``run.py`` child printed no result line, or exited non-zero with none failed."""


def run(side, tree, workload, seed, core):
    """One untraced run of *workload* from *side*'s *tree*, pinned to *core*."""

    def pin():
        if core is not None:
            os.sched_setaffinity(0, {core})

    script = Path(tree) / "benchmarks" / "e2e" / "run.py"
    command = [sys.executable, str(script), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    done = subprocess.run(
        command,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=pin,
        timeout=900,
    )
    stdout, stderr = done.stdout.decode(), done.stderr.decode()
    try:
        values, failed = parse_run(stdout, stderr)
    except (IndexError, KeyError, ValueError):
        values, failed = None, 0
    # run.py exits 1 when its delivery oracle failed; any other exit is a crash.
    if values is None or (done.returncode != 0 and not failed):
        tail = "\n".join(stderr.splitlines()[-20:])
        raise RunFailed(
            "{} seed {} on the {} side exited {}:\n{}".format(
                workload, seed, side, done.returncode, tail
            )
        )
    values["cpu_user_s"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - before
    return values, failed


def judge(base, change, better, bound):
    """``(base median, change median, base IQR, wins, verdict)`` of per-pair values.

    *bound* is the gated metric's relative bound, ``None`` for a reported one.
    """
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    first, _, third = statistics.quantiles(base, n=4)
    iqr, middle, after = third - first, statistics.median(base), statistics.median(change)
    gain = sign * (middle - after)
    every_run_better = all(sign * (b - c) > 0 for b in base for c in change)
    if wins >= 0.9 * len(base) and gain > iqr:
        verdict = "claim met"
    elif bound is None:
        regressed = losses >= 0.9 * len(base) and -gain > iqr
        verdict = "regressed" if regressed else "unresolved"
    elif -gain > bound * abs(middle):
        verdict = "regressed"
    elif iqr > bound * abs(middle) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return middle, after, iqr, wins, verdict


def report(workload, seeds, runs):
    """Print one row per metric; *runs* maps side -> list of per-pair values."""
    gated = [(e["name"], e["better"], e["bound"]) for e in SPEC["end_to_end"]]
    print("== {} seeds {}..{}".format(workload, seeds[0], seeds[-1]))
    row = "  {:24s} base {:>10.4g} change {:>10.4g} base IQR {:>9.3g} wins {:>2d}/{} {}"
    for name, better, bound in gated + [(name, better, None) for name, better in REPORTED]:
        base = [values[name] for values in runs["base"]]
        change = [values[name] for values in runs["change"]]
        middle, after, iqr, wins, verdict = judge(base, change, better, bound)
        print(row.format(name, middle, after, iqr, wins, len(base), verdict))
        print("    base   " + " ".join("{:.4g}".format(value) for value in base))
        print("    change " + " ".join("{:.4g}".format(value) for value in change))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the parent side")
    parser.add_argument("--change", help="git ref of the change side (default: this tree)")
    names = [entry["name"] for entry in SPEC["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    default_core = max(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    parser.add_argument("--core", type=int, default=default_core)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        trees = {"base": checkout(args.base, workdir)}
        same = args.change == args.base
        trees["change"] = trees["base"] if same else checkout(args.change, workdir)
        for workload in args.workload or names:
            runs = {"base": [], "change": []}
            seeds = [args.seed + index for index in range(args.pairs)]
            for index, seed in enumerate(seeds):
                order = ("base", "change") if index % 2 == 0 else ("change", "base")
                for side in order:
                    values, run_failed = run(side, trees[side], workload, seed, args.core)
                    runs[side].append(values)
                    failed += run_failed
            report(workload, seeds, runs)
            sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
