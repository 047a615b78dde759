#!/usr/bin/env python3
"""End-to-end benchmark of the pub/sub middleware: one command, every metric.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--seconds S]      # all workloads, both runs
    python3 benchmarks/e2e/run.py --aa [--workload NAME]        # run-to-run spread vs bounds

With ``--workload`` the run happens in this process and the last line of
standard output is the result object the benchmark driver reads:
``--trace 0`` carries the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  A readable table goes to standard
error.  Without ``--workload`` each workload runs in a fresh subprocess,
untraced and traced.  The exit code is non-zero when any delivery was
missing, duplicated, out of publisher order or unexpected, or when any
operation raised.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import harness
import spans
from workloads import make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: Phases whose spans and counts make up the per-layer metrics.
MEASURED = ("throughput", "latency", "control")

#: Seconds of ``--seconds`` per fixed-size cycle of a traced run.
TRACED_SECONDS_PER_CYCLE = 4

#: The measured cycles may overrun ``--seconds`` by this factor before the
#: harness stops adding cycles (never below three): the work per run is
#: fixed, so a slower machine or program makes a run longer, and the
#: driver's time caps are hard.
OVERRUN = 1.3

#: Seeds per set in ``--aa`` (the driver's acceptance check uses ten too).
AA_SEEDS = 10

#: Per-layer metrics read off the span table: ``(metric, layer, column)``
#: with column 0 = calls and 2 = self seconds (see ``SpanRecorder.layer``).
SPAN_METRICS = (
    ("dispatch.match_calls", "dispatch.match", 0),
    ("dispatch.match_self_s", "dispatch.match", 2),
    ("dispatch.rebuilds", "dispatch.rebuild", 0),
    ("routing.table_writes", "routing.table_write", 0),
    ("routing.table_write_self_s", "routing.table_write", 2),
    ("filters.covering_calls", "filters.covering", 0),
    ("filters.covering_self_s", "filters.covering", 2),
    ("broker.receive_calls", "broker.receive", 0),
    ("broker.receive_self_s", "broker.receive", 2),
    ("broker.client_op_self_s", "broker.client_op", 2),
    ("broker.forwarding_refresh_calls", "broker.forwarding_refresh", 0),
    ("broker.forwarding_refresh_self_s", "broker.forwarding_refresh", 2),
    ("broker.deliver_calls", "broker.deliver", 0),
    ("broker.deliver_self_s", "broker.deliver", 2),
    ("broker.journal_appends", "broker.journal", 0),
    ("broker.journal_self_s", "broker.journal", 2),
    ("core.relocations", "core.relocation", 0),
    ("core.location_updates", "core.location_change", 0),
    ("core.location_change_self_s", "core.location_change", 2),
    ("messages.encode_calls", "messages.encode", 0),
    ("messages.encode_self_s", "messages.encode", 2),
    ("messages.decode_calls", "messages.decode", 0),
    ("messages.decode_self_s", "messages.decode", 2),
    ("runtime.trace_records", "runtime.trace", 0),
    ("runtime.trace_self_s", "runtime.trace", 2),
    ("runtime.send_calls", "runtime.send", 0),
    ("runtime.send_self_s", "runtime.send", 2),
    ("runtime.settle_calls", "runtime.settle", 0),
    ("runtime.settle_self_s", "runtime.settle", 2),
)

#: Per-layer counts the span wrappers measure themselves.
COUNT_METRICS = (
    "broker.journal_bytes",
    "broker.notification_msgs",
    "broker.admin_msgs",
    "broker.mobility_msgs",
    "core.replayed_notifications",
    "messages.wire_bytes",
    "sim.events",
)

#: Per-layer counts taken from ``PubSubNetwork.data_plane_breakdown()``, one
#: of the stats facades the ROADMAP plans to delete: ``(metric, facade key)``.
FACADE_METRICS = (
    ("dispatch.mask_ops", "dispatch_mask_ops"),
    ("dispatch.count_increments", "dispatch_count_increments"),
    ("dispatch.batched_groups", "dispatch_batched_groups"),
    ("dispatch.mask_rebuilds", "dispatch_bitset_rebuilds"),
    ("filters.match_calls", "filter_matches"),
    ("filters.constraint_evals", "constraint_evals"),
)


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------
def run_untraced(name, seed, cycles, scale=1.0, setup_repeats=2, deadline_s=60.0):
    """The end-to-end run; returns ``(metrics, verdict, details)``.

    *metrics* are the gated end-to-end metrics of ``BENCHMARK.json``;
    *details* adds the wall-clock figures, which are reported but not gated
    (see README.md, "Measured spread").  Set-up is timed here and in
    *setup_repeats* fresh subprocesses (the covering cache is process-wide,
    so a second set-up in this process would be a warm one) and the median
    is reported.
    """
    driver, setup_s = harness.set_up(make_workload(name, seed, scale))
    try:
        warmup_s = harness.warm_up(driver)
        results = harness.run_cycles(driver, cycles, deadline_s)
    finally:
        driver.close()
    verdict = driver.oracle.verdict(driver.delivered_triples())
    setups = [setup_s] + [setup_in_subprocess(name, seed) for _ in range(setup_repeats)]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": results["peak_rss_mb"],
        "link_msgs_per_delivery": results["link_msgs_per_delivery"],
    }
    return metrics, verdict, dict(results, warmup_s=warmup_s, control=driver.workload.control)


def setup_in_subprocess(name, seed):
    """Set-up seconds of a fresh network in a fresh interpreter."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
    done = subprocess.run(
        command + ["--setup-only"],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE,
        timeout=170,
        check=True,
    )
    return float(done.stdout.decode().strip().splitlines()[-1])


def run_traced(name, seed, cycles, traced_cycles, scale=1.0, out_path=None, deadline_s=60.0):
    """The per-layer run; returns ``(metrics, verdict, details)``.

    An untraced network runs first, exactly as in :func:`run_untraced`: its
    wall-clock figures are the ``e2e.*`` metrics.  The traced network,
    built after the wrappers are installed, then runs *traced_cycles*
    cycles.  Both start with the very same warm-up cycle (same seed, same
    content), and the ratio of those two wall times is
    ``trace.overhead_ratio``.
    """
    _, plain_verdict, plain = run_untraced(name, seed, cycles, scale, 0, deadline_s)
    forget_covering_results()

    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        recorder.phase = "setup"
        driver, _ = harness.set_up(make_workload(name, seed, scale), recorder)
        try:
            traced_warmup_s = harness.warm_up(driver)
            before = program_counters(driver.network, recorder)
            results = harness.run_cycles(driver, traced_cycles, deadline_s)
            after = program_counters(driver.network, recorder)
            rows_final = routing_rows(driver.network, recorder)
        finally:
            driver.close()
    finally:
        recorder.uninstall()
    verdict = driver.oracle.verdict(driver.delivered_triples())
    for key in ("attempted", "failed"):
        verdict[key] += plain_verdict[key]

    metrics = {"e2e." + name_: (plain[name_], unit) for name_, unit in harness.ROUND_METRICS}
    for metric, layer, column in SPAN_METRICS:
        unit = "s" if column == 2 else "count"
        metrics[metric] = (recorder.layer(layer, MEASURED)[column], unit)
    for metric in COUNT_METRICS:
        metrics[metric] = (recorder.count(metric, MEASURED), "count")
    for metric, key in FACADE_METRICS:
        metrics[metric] = (after.get(key, 0) - before.get(key, 0), "count")
    matched = recorder.count("dispatch.matched", MEASURED)
    match_calls = metrics["dispatch.match_calls"][0]
    roots = [
        recorder.layer(layer, MEASURED)
        for layer in {key[1] for key in recorder.totals}
        if layer.startswith("harness.")
    ]
    metrics.update(
        {
            "dispatch.matched_per_call": (matched / max(1, match_calls), "count"),
            "routing.rows_final": (rows_final, "count"),
            "runtime.gen_lag_p99_ms": (results["generator_lag_p99_ms"], "ms"),
            "harness.self_s": (sum(root[2] for root in roots), "s"),
            "trace.operations_s": (sum(root[1] for root in roots), "s"),
            "trace.overhead_ratio": (traced_warmup_s / plain["warmup_s"], "ratio"),
            "trace.unresolved_targets": (len(recorder.unresolved), "count"),
        }
    )
    details = dict(results, unresolved=recorder.unresolved, control=driver.workload.control)
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        extra = {"workload": name, "seed": seed, "cycles": traced_cycles, "verdict": verdict}
        extra["metrics"] = {key: value for key, (value, _) in metrics.items()}
        recorder.write(out_path, extra)
    return metrics, verdict, details


def forget_covering_results():
    """Empty the process-wide covering cache, if the program still has one.

    Without this the traced network would find every covering test of the
    untraced network before it already answered, and would do less work.
    """
    try:
        from repro.filters.covering_cache import get_covering_cache

        get_covering_cache().clear()
    except (ImportError, AttributeError):
        pass


def program_counters(network, recorder):
    """The program's own matching/dispatch counters, or nothing once they are gone."""
    try:
        return dict(network.data_plane_breakdown())
    except AttributeError:
        facade = "repro.broker.network.PubSubNetwork.data_plane_breakdown"
        if facade not in recorder.unresolved:
            recorder.unresolved.append(facade)
        return {}


def routing_rows(network, recorder):
    try:
        return sum(network.routing_table_sizes().values())
    except AttributeError:
        recorder.unresolved.append("repro.broker.network.PubSubNetwork.routing_table_sizes")
        return 0


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def report(name, seed, traced, metrics, verdict, details):
    """The readable table, on standard error."""
    out = sys.stderr
    kind = "per-layer (traced)" if traced else "end-to-end (untraced)"
    print("== {} seed {} — {}".format(name, seed, kind), file=out)
    row = "  {:36s} {:>16.6g} {}"
    for key, (value, unit) in metrics.items():
        print(row.format(key, value, unit), file=out)
    if not traced:
        print("  wall clock, reported but not gated:", file=out)
        for key, unit in harness.ROUND_METRICS:
            print(row.format(key, details[key], unit), file=out)
    print(
        "  {} cycles in {:.2f} s; per round: {} deliver samples, {} {} samples".format(
            details["cycles"],
            details["measured_s"],
            details["deliver_samples_per_round"],
            details["control_samples_per_round"],
            details["control"],
        ),
        file=out,
    )
    for unresolved in details.get("unresolved", ()):
        print("  unresolved target: {}".format(unresolved), file=out)
    share = verdict["failed"] / verdict["attempted"]
    print("  oracle: {}  failed_share {:g}".format(verdict, share), file=out)


def result_line(metrics, verdict):
    return json.dumps(
        {
            "correct": verdict["failed"] == 0,
            "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "metrics": {
                key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()
            },
        }
    )


def run_one(args):
    spec = load_spec()
    name, seed = args.workload, args.seed
    cycles = max(harness.MIN_CYCLES, round(args.seconds / harness.CYCLE_SECONDS))
    deadline_s = OVERRUN * args.seconds
    if args.trace:
        traced_cycles = max(1, int(args.seconds) // TRACED_SECONDS_PER_CYCLE)
        out_path = OUT_DIR / "{}-seed{}.spans.json".format(name, seed)
        metrics, verdict, details = run_traced(
            name, seed, cycles, traced_cycles, out_path=out_path, deadline_s=deadline_s
        )
        declared = spec["per_layer"]
    else:
        values, verdict, details = run_untraced(name, seed, cycles, deadline_s=deadline_s)
        units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
        metrics = {key: (value, units[key]) for key, value in values.items()}
        declared = spec["end_to_end"]
    if sorted(metrics) != sorted(entry["name"] for entry in declared):
        raise SystemExit("metrics measured and metrics declared in BENCHMARK.json differ")
    report(name, seed, args.trace, metrics, verdict, details)
    print(result_line(metrics, verdict))
    return 0 if verdict["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------
def run_child(workload, seed, seconds, trace):
    """Run one workload in a subprocess; returns its parsed result object."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(
        command + ["--seconds", str(seconds), "--trace", str(trace)],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE,
        timeout=900,
    )
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        raise SystemExit("{} (trace {}) printed no result".format(workload, trace))
    return json.loads(lines[-1])


def run_all(args, workloads):
    failed = 0
    row = "{:16s} {:36s} {:>16.6g} {}"
    for workload in workloads:
        for trace in (0, 1):
            result = run_child(workload, args.seed, args.seconds, trace)
            failed += result["failed"]
            for key, entry in result["metrics"].items():
                print(row.format(workload, key, entry["value"], entry["unit"]))
            attempted = "of {}".format(result["attempted"])
            print(row.format(workload, "failed", result["failed"], attempted))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# A/A: how far do two sets of runs of the same code disagree?
# ---------------------------------------------------------------------------
def spread(values):
    """Interquartile range as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def run_aa(args, workloads):
    """Two sets of ten seeds per workload, judged the way the driver judges them."""
    spec = load_spec()
    exit_code = 0
    header = "{:16s} {:24s} {:>12s} {:>8s} {:>8s} {:>8s} {:>6s}"
    row = "{:16s} {:24s} {:>12.6g} {:>8.4f} {:>8.4f} {:>+8.4f} {:>6.2f} {}"
    print(header.format("workload", "metric", "median", "spread1", "spread2", "drift", "bound"))
    for workload in workloads:
        sets = []
        for _ in range(2):
            seeds = range(args.seed, args.seed + AA_SEEDS)
            sets.append([run_child(workload, seed, args.seconds, 0) for seed in seeds])
        if any(run["failed"] for runs in sets for run in runs):
            exit_code = 1
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            first, second = ([run["metrics"][name]["value"] for run in runs] for runs in sets)
            before, after = statistics.median(first), statistics.median(second)
            drift = (after - before if entry["better"] == "lower" else before - after) / before
            spreads = spread(first), spread(second)
            ok = drift <= bound and (name == "setup_s" or max(spreads) <= bound)
            if not ok:
                exit_code = 1
            verdict = "" if ok else "OUT OF BOUND"
            print(row.format(workload, name, before, *spreads, drift, bound, verdict), flush=True)
    return exit_code


# ---------------------------------------------------------------------------
def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--aa", action="store_true", help="two sets of ten seeds; spread vs bound")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv):
    args = parse(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit("unknown workload {!r}; choose from {}".format(args.workload, names))
    if args.aa:
        return run_aa(args, [args.workload] if args.workload else names)
    if args.workload is None:
        return run_all(args, names)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set and dict orders inside the program depend on the hash seed;
        # pin it so that run-to-run differences are the machine's, not ours.
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        driver, seconds = harness.set_up(make_workload(args.workload, args.seed))
        driver.close()
        print(repr(seconds))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
