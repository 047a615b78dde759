"""Run every experiment and render an EXPERIMENTS-style report.

``python -m repro.experiments.runner`` executes the reproduction of every
table and figure and prints one section per artefact, including whether
the regenerated values match the paper (for the exact tables) or show the
expected qualitative shape (for the measured figures).

``--backend {sim,aio-memory,aio-tcp}`` selects the runtime backend: the
discrete-event simulator (default), or the virtual-time asyncio runtime
over in-memory byte pipes / loopback TCP.  Results are identical on all
three — the backend-parity CI gate asserts exactly that.

``--telemetry`` starts a live :class:`~repro.telemetry.collector.
TelemetryCollector`, streams every network's metric snapshots, spans and
logs to it over framed TCP while the experiments run, and appends the
collector's aggregate summary plus one causal span tree to the report.
Event timestamps come from the experiments' (virtual) clocks, so the
experiment results themselves stay byte-identical with telemetry on.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional

from repro.experiments import (
    failure_schedule,
    fig2_naive_roaming,
    fig3_blackout,
    fig5_relocation,
    fig9_message_counts,
    table1_ploc,
    table2_filters,
    table3_endpoints,
    table4_adaptive,
)
from repro.experiments.backends import Backend
from repro.runtime.factory import BACKENDS


@dataclass
class ExperimentOutcome:
    """One executed experiment: its rendered output and pass/fail verdict."""

    name: str
    passed: bool
    text: str


def run_all(quick: bool = False, backend: Backend = Backend()) -> List[ExperimentOutcome]:
    """Execute all experiments; *quick* shrinks the Figure 9 horizon.

    Every experiment that builds a network runs it on *backend*; the
    tables are pure computation and take none.
    """
    outcomes: List[ExperimentOutcome] = []

    t1 = table1_ploc.run()
    outcomes.append(ExperimentOutcome("Table 1 (ploc values)", t1.matches_paper, t1.format_text()))

    t2 = table2_filters.run(backend=backend)
    outcomes.append(
        ExperimentOutcome(
            "Table 2 (per-hop filters, a -> b -> d)",
            t2.matches_paper and t2.implementation_agrees,
            t2.format_text(),
        )
    )

    t3 = table3_endpoints.run()
    outcomes.append(
        ExperimentOutcome(
            "Table 3 (trivial / flooding end points)", t3.matches_paper, t3.format_text()
        )
    )

    t4 = table4_adaptive.run()
    outcomes.append(
        ExperimentOutcome(
            "Table 4 / Figure 8 (adaptive levels)", t4.matches_paper, t4.format_text()
        )
    )

    f2 = fig2_naive_roaming.run(backend=backend)
    outcomes.append(
        ExperimentOutcome(
            "Figure 2 (naive roaming anomalies)",
            f2.naive_shows_anomalies and f2.protocol_exactly_once,
            f2.format_text(),
        )
    )

    f3 = fig3_blackout.run(backend=backend)
    outcomes.append(
        ExperimentOutcome("Figure 3 (blackout periods)", f3.shows_expected_shape, f3.format_text())
    )

    f5_single = fig5_relocation.run(producers=1, backend=backend)
    f5_multi = fig5_relocation.run(producers=2, backend=backend)
    outcomes.append(
        ExperimentOutcome(
            "Figure 5 (relocation walk-through)",
            f5_single.all_guarantees_hold and f5_multi.all_guarantees_hold,
            f5_single.format_text() + "\n\n" + f5_multi.format_text(),
        )
    )

    config = (
        fig9_message_counts.Fig9Config(horizon=30.0) if quick else fig9_message_counts.Fig9Config()
    )
    f9 = fig9_message_counts.run(config, backend=backend)
    outcomes.append(
        ExperimentOutcome(
            "Figure 9 (total message counts)", f9.shows_expected_shape, f9.format_text()
        )
    )

    fs = failure_schedule.run(backend=backend)
    outcomes.append(
        ExperimentOutcome(
            "Failure schedule (crash/restart + partition)", fs.passed, fs.format_text()
        )
    )

    return outcomes


def format_report(outcomes: List[ExperimentOutcome]) -> str:
    """Render all outcomes as a plain-text report."""
    lines: List[str] = []
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        lines.append("=" * 72)
        lines.append("[{}] {}".format(status, outcome.name))
        lines.append("-" * 72)
        lines.append(outcome.text)
        lines.append("")
    passed = sum(1 for outcome in outcomes if outcome.passed)
    lines.append("{} / {} experiments match the paper".format(passed, len(outcomes)))
    return "\n".join(lines)


def _run_with_telemetry(quick: bool, backend: str) -> List[ExperimentOutcome]:
    """Run everything with a live collector attached; print its findings."""
    from repro.telemetry import TcpSink, TelemetryConfig
    from repro.telemetry.collector import TelemetryCollector
    from repro.telemetry.tracing import render_span_tree, trace_ids

    collector = TelemetryCollector(summary_interval=2.0)
    host, port = collector.start()
    try:
        config = TelemetryConfig(sink_factory=lambda: TcpSink(host, port))
        outcomes = run_all(quick=quick, backend=Backend(backend, config))
    finally:
        collector.stop()
    print(collector.aggregate.summary())
    sources = collector.aggregate.span_sources()
    if sources:
        spans = collector.aggregate.span_list(sources[0])
        traced = trace_ids(spans)
        if traced:
            print()
            print("sample notification trace (1 of {} in the first stream):".format(len(traced)))
            print(render_span_tree(spans, traced[0]))
    return outcomes


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point."""
    argv = argv if argv is not None else sys.argv[1:]
    quick = "--quick" in argv
    telemetry = "--telemetry" in argv
    backend = "sim"
    if "--backend" in argv:
        index = argv.index("--backend")
        if index + 1 >= len(argv):
            print("--backend requires a value: one of {}".format(", ".join(BACKENDS)))
            return 2
        backend = argv[index + 1]
        if backend not in BACKENDS:
            print("unknown backend {!r}; expected one of {}".format(backend, ", ".join(BACKENDS)))
            return 2
    if telemetry:
        outcomes = _run_with_telemetry(quick=quick, backend=backend)
    else:
        outcomes = run_all(quick=quick, backend=Backend(backend))
    print(format_report(outcomes))
    return 0 if all(outcome.passed for outcome in outcomes) else 1


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    raise SystemExit(main())
