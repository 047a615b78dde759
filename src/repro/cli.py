"""The command line: ``python -m repro.cli <command>``.

Both commands read the one experiment table,
:data:`repro.experiments.runner.EXPERIMENTS`:

* ``experiments`` — run every experiment and print the report, one
  section per table / figure with its verdict, ending in
  ``N / 9 experiments match the paper``;
* ``run NAME`` — run the experiment the table names *NAME* (``table1`` …
  ``table4``, ``fig2``, ``fig3``, ``fig5-single``, ``fig5-multi``,
  ``fig9``, ``failure-schedule``) and print its text.

Both take ``--backend {sim,aio-memory,aio-tcp}`` (the discrete-event
simulator, or the virtual-time asyncio runtime over in-memory pipes /
loopback TCP; the output is identical on all three), ``--quick`` (the
30 s Figure 9 horizon instead of the paper's 100 s) and ``--telemetry``
(stream every network's metric snapshots, spans and logs to a live
collector over loopback TCP; the collector's findings are printed after
the unchanged output).  ``run`` also takes ``--disk-store``: recovery
stores on disk in a temporary directory, for the experiments that keep
them.

The exit code is 0 when every verdict holds, 1 when one fails or the
reader closes the pipe before the output is written (``| head``), and 2
on a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

from repro.experiments.backends import Backend
from repro.experiments.runner import EXPERIMENTS, format_report, run_all
from repro.runtime.factory import BACKENDS
from repro.telemetry import TcpSink, TelemetryConfig


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--backend", choices=BACKENDS, default="sim", help="runtime backend (default: sim)"
    )
    common.add_argument("--quick", action="store_true", help="shrink the Figure 9 horizon")
    common.add_argument(
        "--telemetry",
        action="store_true",
        help="stream to a live collector and print its findings after the output",
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Supporting Mobility in Content-Based "
        "Publish/Subscribe Middleware' (Middleware 2003)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("experiments", parents=[common], help="run every experiment")
    run = subparsers.add_parser("run", parents=[common], help="run one experiment")
    run.add_argument("name", choices=list(EXPERIMENTS))
    run.add_argument(
        "--disk-store",
        action="store_true",
        help="disk-backed recovery stores in a temporary directory",
    )
    return parser


@contextmanager
def _backend(name: str, telemetry: bool) -> Iterator[Backend]:
    """The backend *name*; with *telemetry*, it streams to a live collector
    whose findings are printed when the block ends."""
    if not telemetry:
        yield Backend(name)
        return
    from repro.telemetry.collector import TelemetryCollector

    collector = TelemetryCollector()
    host, port = collector.start()
    try:
        yield Backend(name, TelemetryConfig(sink_factory=lambda: TcpSink(host, port)))
    finally:
        collector.stop()
    _print_findings(collector.aggregate)


def _print_findings(aggregate: Any) -> None:
    """The collector's summary, one sample notification trace and every log."""
    from repro.telemetry.tracing import render_span_tree, trace_ids

    print()
    print(aggregate.summary())
    sources = aggregate.span_sources()
    if sources:
        spans = aggregate.span_list(sources[0])
        traced = trace_ids(spans)
        if traced:
            print()
            print("sample notification trace (1 of {} in the first stream):".format(len(traced)))
            print(render_span_tree(spans, traced[0]))
    for log in aggregate.log_list():
        print("  [{}] {}@{:.3f}: {}".format(log.level, log.broker, log.time, log.text))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.disk_store and EXPERIMENTS[args.name].on_disk is None:
        parser.error("--disk-store: {} keeps no recovery store".format(args.name))
    try:
        with _backend(args.backend, args.telemetry) as backend:
            passed = _run(args, backend)
        # A closed pipe surfaces here, not in the flush at exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early: send what is still buffered to the null
        # device, so the flush at exit has nothing to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if passed else 1


def _run(args: argparse.Namespace, backend: Backend) -> bool:
    """Run and print what *args* name on *backend*; whether every verdict holds."""
    if args.command == "experiments":
        outcomes = run_all(quick=args.quick, backend=backend)
        print(format_report(outcomes))
        return all(outcome.passed for outcome in outcomes)
    experiment = EXPERIMENTS[args.name]
    if args.disk_store:
        with tempfile.TemporaryDirectory() as directory:
            result = experiment.on_disk(backend, directory)
    else:
        result = experiment.run(backend, args.quick)
    print(result.format_text())
    return experiment.verdict(result)


if __name__ == "__main__":  # pragma: no cover - manual / CI invocation helper
    raise SystemExit(main())
