"""The experiment table and the report rendered from it.

:data:`EXPERIMENTS` is the one list of what regenerates the paper's
evaluation.  Each entry, by name, says which report section it belongs
to, how it runs on a :class:`~repro.experiments.backends.Backend` (with
``quick`` shrinking the Figure 9 horizon) and what counts as a pass.
:func:`run_all` runs the table and :func:`format_report` renders one
section per table / figure with its verdict — whether the regenerated
values match the paper (the exact tables) or show the expected
qualitative shape (the measured figures).  Results are identical on every
backend; the backend-parity gate asserts exactly that.

``python -m repro.cli experiments`` prints the report and
``python -m repro.cli run NAME`` one entry (see :mod:`repro.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional

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


@dataclass(frozen=True)
class Experiment:
    """One entry of :data:`EXPERIMENTS`.

    *run* takes the backend and ``quick`` and returns a result with a
    ``format_text()``; *verdict* says whether that result passes.
    Consecutive entries with the same *section* share one report section.
    *on_disk*, for the experiments that keep recovery stores, runs them
    with disk-backed stores under a directory.
    """

    section: str
    run: Callable[[Backend, bool], Any]
    verdict: Callable[[Any], bool]
    on_disk: Optional[Callable[[Backend, str], Any]] = None


def _fig9(backend: Backend, quick: bool) -> fig9_message_counts.Fig9Result:
    config = fig9_message_counts.Fig9Config(horizon=30.0) if quick else None
    return fig9_message_counts.run(config, backend=backend)


#: name -> experiment, in report order.  The tables are pure computation
#: and ignore the backend.
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        "Table 1 (ploc values)",
        lambda backend, quick: table1_ploc.run(),
        lambda result: result.matches_paper,
    ),
    "table2": Experiment(
        "Table 2 (per-hop filters, a -> b -> d)",
        lambda backend, quick: table2_filters.run(backend=backend),
        lambda result: result.matches_paper and result.implementation_agrees,
    ),
    "table3": Experiment(
        "Table 3 (trivial / flooding end points)",
        lambda backend, quick: table3_endpoints.run(),
        lambda result: result.matches_paper,
    ),
    "table4": Experiment(
        "Table 4 / Figure 8 (adaptive levels)",
        lambda backend, quick: table4_adaptive.run(),
        lambda result: result.matches_paper,
    ),
    "fig2": Experiment(
        "Figure 2 (naive roaming anomalies)",
        lambda backend, quick: fig2_naive_roaming.run(backend=backend),
        lambda result: result.naive_shows_anomalies and result.protocol_exactly_once,
    ),
    "fig3": Experiment(
        "Figure 3 (blackout periods)",
        lambda backend, quick: fig3_blackout.run(backend=backend),
        lambda result: result.shows_expected_shape,
    ),
    "fig5-single": Experiment(
        "Figure 5 (relocation walk-through)",
        lambda backend, quick: fig5_relocation.run(producers=1, backend=backend),
        lambda result: result.all_guarantees_hold,
    ),
    "fig5-multi": Experiment(
        "Figure 5 (relocation walk-through)",
        lambda backend, quick: fig5_relocation.run(producers=2, backend=backend),
        lambda result: result.all_guarantees_hold,
    ),
    "fig9": Experiment(
        "Figure 9 (total message counts)",
        _fig9,
        lambda result: result.shows_expected_shape,
    ),
    "failure-schedule": Experiment(
        "Failure schedule (crash/restart + partition)",
        lambda backend, quick: failure_schedule.run(backend=backend),
        lambda result: result.passed,
        on_disk=lambda backend, directory: failure_schedule.run(
            failure_schedule.FailureScheduleConfig(storage_dir=directory), backend
        ),
    ),
}


@dataclass
class ExperimentOutcome:
    """One report section: its rendered output and pass/fail verdict."""

    name: str
    passed: bool
    text: str


def run_all(quick: bool = False, backend: Backend = Backend()) -> List[ExperimentOutcome]:
    """Run every experiment on *backend*; one outcome per report section."""
    outcomes: List[ExperimentOutcome] = []
    for section, group in groupby(EXPERIMENTS.values(), key=attrgetter("section")):
        runs = [(experiment, experiment.run(backend, quick)) for experiment in group]
        outcomes.append(
            ExperimentOutcome(
                section,
                all(experiment.verdict(result) for experiment, result in runs),
                "\n\n".join(result.format_text() for _, result in runs),
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
