"""Table 1 — values of ploc(x, t) for the example movement graph (Figure 7).

The paper tabulates ``ploc(x, t)`` for the four-location movement graph of
Figure 7 and ``t = 0..3``::

    t  x=a          x=b          x=c          x=d
    0  {a}          {b}          {c}          {d}
    1  {a,b,c}      {a,b,d}      {a,c,d}      {b,c,d}
    2  {a,b,c,d}    {a,b,c,d}    {a,b,c,d}    {a,b,c,d}
    3  {a,b,c,d}    {a,b,c,d}    {a,b,c,d}    {a,b,c,d}

``run()`` regenerates the table from the movement-graph and ploc
implementations; the accompanying test asserts cell-for-cell equality with
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.core.ploc import MovementGraph, PlocFunction, format_ploc_table


#: The values printed in the paper's Table 1.
PAPER_TABLE_1: Dict[int, Dict[str, FrozenSet[str]]] = {
    0: {"a": frozenset("a"), "b": frozenset("b"), "c": frozenset("c"), "d": frozenset("d")},
    1: {
        "a": frozenset({"a", "b", "c"}),
        "b": frozenset({"a", "b", "d"}),
        "c": frozenset({"a", "c", "d"}),
        "d": frozenset({"b", "c", "d"}),
    },
    2: {loc: frozenset({"a", "b", "c", "d"}) for loc in "abcd"},
    3: {loc: frozenset({"a", "b", "c", "d"}) for loc in "abcd"},
}


@dataclass
class Table1Result:
    """The regenerated ploc table together with the paper's reference values."""

    computed: Dict[int, Dict[str, FrozenSet[str]]]
    reference: Dict[int, Dict[str, FrozenSet[str]]]

    @property
    def matches_paper(self) -> bool:
        """``True`` when every cell equals the paper's Table 1."""
        return self.computed == self.reference

    def mismatches(self) -> List[str]:
        """Human-readable list of differing cells (empty when exact)."""
        problems: List[str] = []
        for step, row in self.reference.items():
            for location, expected in row.items():
                actual = self.computed.get(step, {}).get(location)
                if actual != expected:
                    problems.append(
                        "ploc({}, {}): paper {} != computed {}".format(
                            location, step, sorted(expected), sorted(actual or [])
                        )
                    )
        return problems

    def format_text(self) -> str:
        """Render the computed table in the paper's layout."""
        return format_ploc_table(self.computed, locations=["a", "b", "c", "d"])


def run(
    max_steps: int = 3,
    graph: Optional[MovementGraph] = None,
) -> Table1Result:
    """Regenerate Table 1 (optionally for a different movement graph)."""
    graph = graph or MovementGraph.paper_example()
    ploc = PlocFunction(graph)
    computed = ploc.table(max_steps)
    return Table1Result(computed=computed, reference=PAPER_TABLE_1)
