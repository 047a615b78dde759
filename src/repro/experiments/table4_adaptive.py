"""Table 4 / Figure 8 — adaptive ploc levels for concrete timing values.

The paper's worked example uses Δ = 100 ms and per-hop subscription
processing delays δ₁ = 120, δ₂ = 50, δ₃ = 50, δ₄ = 20 ms.  Figure 8 puts
the cumulative sums on a time line against the multiples of Δ; the
resulting per-hop ploc values (Table 4) are::

    t  x=a          x=b          x=c          x=d
    0  {a}          {b}          {c}          {d}
    1  {a,b,c}      {a,b,d}      {a,c,d}      {b,c,d}
    2  {a,b,c}      {a,b,d}      {a,c,d}      {b,c,d}
    3  {a,b,c,d}    {a,b,c,d}    {a,b,c,d}    {a,b,c,d}

i.e. uncertainty levels 0, 1, 1, 2 for hops 0..3: the first level step is
inserted between B1 and B2 (δ₁ alone already exceeds Δ), no step between
B2 and B3 (δ₁+δ₂ = 170 < 2Δ), and another step between B3 and B4
(δ₁+δ₂+δ₃ = 220 > 2Δ).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core.adaptivity import UncertaintyPlan, adaptive_levels
from repro.core.ploc import MovementGraph, PlocFunction, format_ploc_table

#: Timing values of the paper's example (all in milliseconds).
PAPER_DWELL_TIME = 100.0
PAPER_HOP_DELAYS: Sequence[float] = (120.0, 50.0, 50.0, 20.0)

#: The per-hop levels Figure 8 / Table 4 imply for hops 0..3.
PAPER_LEVELS: Sequence[int] = (0, 1, 1, 2)

#: The values printed in the paper's Table 4.
PAPER_TABLE_4: Dict[int, Dict[str, FrozenSet[str]]] = {
    0: {"a": frozenset("a"), "b": frozenset("b"), "c": frozenset("c"), "d": frozenset("d")},
    1: {
        "a": frozenset({"a", "b", "c"}),
        "b": frozenset({"a", "b", "d"}),
        "c": frozenset({"a", "c", "d"}),
        "d": frozenset({"b", "c", "d"}),
    },
    2: {
        "a": frozenset({"a", "b", "c"}),
        "b": frozenset({"a", "b", "d"}),
        "c": frozenset({"a", "c", "d"}),
        "d": frozenset({"b", "c", "d"}),
    },
    3: {loc: frozenset({"a", "b", "c", "d"}) for loc in "abcd"},
}


@dataclass
class Table4Result:
    """Adaptive levels, cumulative delays and the regenerated ploc table."""

    levels: List[int]
    cumulative_delays: List[float]
    dwell_time: float
    table: Dict[int, Dict[str, FrozenSet[str]]]

    @property
    def matches_paper(self) -> bool:
        """``True`` when the levels and the table match the paper."""
        return (
            list(self.levels[: len(PAPER_LEVELS)]) == list(PAPER_LEVELS)
            and self.table == PAPER_TABLE_4
        )

    def format_text(self) -> str:
        """Render the Figure 8 time line and the Table 4 ploc values."""
        lines = [
            "Delta = {} ms, hop delays = {}".format(
                self.dwell_time, ", ".join(str(d) for d in PAPER_HOP_DELAYS)
            ),
            "cumulative delays: {}".format(
                ", ".join("{:.0f}".format(value) for value in self.cumulative_delays)
            ),
            "levels per hop:     {}".format(", ".join(str(level) for level in self.levels)),
            "",
            format_ploc_table(self.table, locations=["a", "b", "c", "d"]),
        ]
        return "\n".join(lines)


def run(
    dwell_time: float = PAPER_DWELL_TIME,
    hop_delays: Sequence[float] = PAPER_HOP_DELAYS,
    graph: Optional[MovementGraph] = None,
    table_hops: int = 3,
) -> Table4Result:
    """Regenerate Figure 8's level assignment and Table 4's ploc values."""
    graph = graph or MovementGraph.paper_example()
    levels = adaptive_levels(dwell_time, hop_delays)
    plan = UncertaintyPlan(levels=levels, name="adaptive")
    ploc = PlocFunction(graph)
    cumulative = []
    total = 0.0
    for delay in hop_delays:
        total += delay
        cumulative.append(total)
    table: Dict[int, Dict[str, FrozenSet[str]]] = {}
    for hop in range(table_hops + 1):
        table[hop] = {
            location: ploc(location, plan.level_for_hop(hop)) for location in graph.locations()
        }
    return Table4Result(
        levels=levels, cumulative_delays=cumulative, dwell_time=dwell_time, table=table
    )
