#!/usr/bin/env python
"""Benchmark regression gate: regenerate benches and diff against BENCH_*.json.

The committed ``BENCH_<name>.json`` files (written by ``run_bench.py``)
record the deterministic cost counters of each benchmark suite —
covering-test invocations, administrative message counts, event-loop
events — plus the ratios between them and ungated wall-clock readings.
This script re-runs the suites,
condenses the fresh numbers the same way, and **fails** when a counter
regressed beyond tolerance:

* *cost counters* (``covering_calls*``, ``merge_evals*``,
  ``admin_messages``, ``settle_events*``, ``cache_misses*``,
  ``constraint_evals*``, ``mask_ops``, ``bitset_rebuilds``,
  ``fig9_total_messages`` and the recovery counters) must not
  **increase** by more than ``--counter-tolerance`` (default 5%); under
  ``--exact`` they must not move at all, in either direction;
* *tallies* (``advert_gate_hits``, ``advert_gate_misses``,
  ``dispatch_matches``, ``predicates_skipped_shared``, ``cache_hits*``,
  ``redelivered``) are deterministic but not costs — more hits is no
  regression — so only ``--exact`` gates them: they must not move;
* *cost ratios* against the from-scratch specification
  (``covering_call_ratio``, ``merge_eval_ratio``,
  ``constraint_eval_ratio``) or the unbatched run (``event_ratio``) must
  not **decrease** below ``--ratio-tolerance`` (default 50%) of the
  committed value — losing an optimisation entirely reads as ~1×;
* workload descriptors (``subscriptions``, ``backend`` ...) must match
  exactly — a mismatch means the benchmark itself changed (or runs on a
  different runtime backend) and the BENCH file must be regenerated;
* benchmarks present in the committed file must still exist.

Mapping convention: ``BENCH_<name>.json`` is produced by
``benchmarks/test_bench_<name>.py`` (``BENCH_all.json`` by the whole
directory).  Typical usage::

    python benchmarks/check_bench.py              # check every committed BENCH file
    python benchmarks/check_bench.py scale        # only BENCH_scale.json
    python benchmarks/check_bench.py --keep-json  # leave regenerated files around

A legitimate behaviour change (e.g. a strategy improvement that lowers
admin counts) is recorded by regenerating the file::

    python benchmarks/run_bench.py --name scale benchmarks/test_bench_scale.py
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: extra_info fields where an *increase* is a cost regression.
COUNTER_FIELDS = (
    "covering_calls",
    "merge_evals",
    "admin_messages",
    "settle_events",
    "cache_misses",
    "constraint_evals",
    # Recovery hygiene: replay volume and delivery slop must not creep up.
    "recovery_log_replayed",
    "recovery_store_bytes",
    "deliveries_lost",
    "duplicates_suppressed",
    # Disk store and in-flight retention: write amplification, replayed
    # journal volume and takeover retransmits must not creep up either.
    "disk_bytes_written",
    "disk_records_recovered",
    "disk_snapshots_written",
    "retention_replayed",
    # Bitset dispatch: mask operations are a deterministic cost —
    # creeping up means the bitset plane (or its shared-predicate
    # skipping) stopped doing its job.
    "mask_ops",
    # Predicate masks written per filter indexed: plan builds and churn.
    "bitset_rebuilds",
    # Figure 9's link-message total, counted from the trace's link rows.
    "fig9_total_messages",
)
#: Deterministic extra_info fields that are no cost (a hit rate, a match
#: count): gated only under ``--exact``, which requires them unchanged.
TALLY_FIELDS = (
    # The advertisement gate's memo.
    "advert_gate_hits",
    "advert_gate_misses",
    # The dispatch plan: rows matched and predicates a shared mask skipped.
    "dispatch_matches",
    "predicates_skipped_shared",
    # Covering and merge-pair memo hits (``cache_hits_merge_pair`` too).
    "cache_hits",
    # Notifications a durable subscriber got again after a crash.
    "redelivered",
)
#: extra_info fields where a *decrease* is a lost speedup.
RATIO_FIELDS = (
    "covering_call_ratio",
    "merge_eval_ratio",
    "event_ratio",
    "constraint_eval_ratio",
)
#: extra_info fields describing the workload; any change requires regeneration.
#: ``backend`` names the runtime the numbers were produced on (a string,
#: gated on exact equality like every other workload descriptor).
WORKLOAD_FIELDS = (
    "subscriptions",
    "roam_changes",
    "publishes",
    "delivered",
    "routing_rows",
    "backend",
    # Telemetry event counts are deterministic under the sim backend, so
    # they are gated exactly: a drifting stream means the emission points
    # changed and BENCH_telemetry.json must be regenerated consciously.
    "telemetry_events",
    "span_events",
    "snapshot_events",
)
#: Wall-clock fields (``settle_seconds*``, ``mean_s`` ...) are never gated.


def _classify(field: str) -> str:
    for prefix in WORKLOAD_FIELDS:
        if field == prefix:
            return "workload"
    for prefix in RATIO_FIELDS:
        if field == prefix:
            return "ratio"
    for prefix in COUNTER_FIELDS:
        if field == prefix or field.startswith(prefix + "_"):
            return "counter"
    for prefix in TALLY_FIELDS:
        if field == prefix or field.startswith(prefix + "_"):
            return "tally"
    return "ignore"


def committed_bench_files(names):
    """Paths of the committed BENCH_<name>.json files to check."""
    if names:
        paths = [os.path.join(REPO_ROOT, "BENCH_{}.json".format(name)) for name in names]
        missing = [path for path in paths if not os.path.exists(path)]
        if missing:
            raise SystemExit("no such BENCH file(s): {}".format(", ".join(missing)))
        return paths
    return sorted(
        path
        for path in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
        # Skip the regenerated copies a previous --keep-json run left.
        if not path.endswith(".new.json")
    )


def selectors_for(name: str):
    """The pytest selectors that produced BENCH_<name>.json."""
    if name == "all":
        return []
    suite = os.path.join(REPO_ROOT, "benchmarks", "test_bench_{}.py".format(name))
    if not os.path.exists(suite):
        raise SystemExit(
            "BENCH_{0}.json has no matching benchmarks/test_bench_{0}.py".format(name)
        )
    return [suite]


def regenerate(name: str, out_dir: str) -> dict:
    """Re-run the suite via run_bench.py and load the fresh condensed JSON."""
    command = [
        sys.executable,
        os.path.join(REPO_ROOT, "benchmarks", "run_bench.py"),
        "--name",
        name,
        "--out-dir",
        out_dir,
        *selectors_for(name),
    ]
    result = subprocess.run(command, cwd=REPO_ROOT)
    if result.returncode != 0:
        raise SystemExit(
            "benchmark suite for {!r} failed (exit {})".format(name, result.returncode)
        )
    with open(os.path.join(out_dir, "BENCH_{}.json".format(name))) as handle:
        return json.load(handle)


def compare(name, old, new, counter_tolerance, ratio_tolerance, exact=False):
    """Diff two condensed BENCH documents; returns a list of failure strings."""
    failures = []
    new_by_name = {record["name"]: record for record in new.get("benchmarks", [])}
    for old_record in old.get("benchmarks", []):
        bench = old_record["name"]
        new_record = new_by_name.get(bench)
        if new_record is None:
            failures.append(
                "{}::{}: benchmark disappeared — regenerate BENCH_{}.json if intended".format(
                    name, bench, name
                )
            )
            continue
        old_info = old_record.get("extra_info", {})
        new_info = new_record.get("extra_info", {})
        for field, old_value in sorted(old_info.items()):
            kind = _classify(field)
            if kind == "ignore" or (kind == "tally" and not exact):
                continue
            # Workload descriptors are compared exactly whatever their
            # type (``backend`` is a string); the numeric tolerances
            # below only make sense for numbers.
            if kind != "workload" and not isinstance(old_value, (int, float)):
                continue
            new_value = new_info.get(field)
            if new_value is None:
                failures.append(
                    "{}::{}: field {!r} disappeared from extra_info".format(name, bench, field)
                )
                continue
            if kind == "workload":
                if new_value != old_value:
                    failures.append(
                        "{}::{}: workload field {} changed {} -> {}; "
                        "regenerate BENCH_{}.json".format(
                            name, bench, field, old_value, new_value, name
                        )
                    )
            elif kind in ("counter", "tally"):
                if exact:
                    if new_value != old_value:
                        failures.append(
                            "{}::{}: {} changed {} -> {} (--exact requires "
                            "byte-identical counters)".format(
                                name, bench, field, old_value, new_value
                            )
                        )
                    continue
                limit = old_value * (1.0 + counter_tolerance)
                if new_value > limit:
                    failures.append(
                        "{}::{}: {} regressed {} -> {} (> {:+.0%} tolerance)".format(
                            name, bench, field, old_value, new_value, counter_tolerance
                        )
                    )
            elif kind == "ratio":
                floor = old_value * ratio_tolerance
                if new_value < floor:
                    failures.append(
                        "{}::{}: {} collapsed {} -> {} (< {:.0%} of committed)".format(
                            name, bench, field, old_value, new_value, ratio_tolerance
                        )
                    )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "names",
        nargs="*",
        help="BENCH file names to check (default: every committed BENCH_*.json)",
    )
    parser.add_argument(
        "--counter-tolerance",
        type=float,
        default=0.05,
        help="allowed relative increase of deterministic cost counters (default 0.05)",
    )
    parser.add_argument(
        "--ratio-tolerance",
        type=float,
        default=0.5,
        help="fraction of a committed speedup ratio that must survive (default 0.5)",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="cost counters and tallies must match the committed values byte for byte "
        "(the telemetry-off no-perturbation gate); ratios keep their tolerance",
    )
    parser.add_argument(
        "--keep-json",
        action="store_true",
        help="keep the regenerated BENCH files next to the committed ones as BENCH_<name>.new.json",
    )
    args = parser.parse_args(argv)

    paths = committed_bench_files(args.names)
    if not paths:
        print("no committed BENCH_*.json files found; nothing to check")
        return 0

    failures = []
    for path in paths:
        name = os.path.basename(path)[len("BENCH_") : -len(".json")]
        with open(path) as handle:
            old = json.load(handle)
        with tempfile.TemporaryDirectory() as out_dir:
            new = regenerate(name, out_dir)
        if args.keep_json:
            new_path = os.path.join(REPO_ROOT, "BENCH_{}.new.json".format(name))
            with open(new_path, "w") as handle:
                json.dump(new, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote {}".format(new_path))
        problems = compare(
            name, old, new, args.counter_tolerance, args.ratio_tolerance, exact=args.exact
        )
        if problems:
            failures.extend(problems)
        else:
            print("BENCH_{}.json: OK ({} benchmarks)".format(name, len(old.get("benchmarks", []))))

    if failures:
        print("\nbenchmark regressions detected:")
        for failure in failures:
            print("  - " + failure)
        print(
            "\nIf the change is intentional, regenerate with "
            "`python benchmarks/run_bench.py --name <name> benchmarks/test_bench_<name>.py` "
            "and commit the updated BENCH file."
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
