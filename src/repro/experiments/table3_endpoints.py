"""Table 3 — ploc values for the two degenerate instantiations of the scheme.

Top half (global sub/unsub, slow clients): every hop beyond the
client-side filter looks one movement step ahead::

    t  x=a        x=b        x=c        x=d
    0  {a}        {b}        {c}        {d}
    1  {a,b,c}    {a,b,d}    {a,c,d}    {b,c,d}
    2  {a,b,c}    {a,b,d}    {a,c,d}    {b,c,d}
    3  {a,b,c}    {a,b,d}    {a,c,d}    {b,c,d}

Bottom half (flooding, fast clients): every hop beyond the client-side
filter covers the whole location set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from repro.baselines.endpoints import flooding_endpoint_plan, global_subunsub_plan
from repro.core.ploc import MovementGraph, PlocFunction, format_ploc_table

ALL_LOCATIONS = frozenset({"a", "b", "c", "d"})

#: Paper values for the global sub/unsub end point (Table 3, top).
PAPER_TABLE_3_TRIVIAL: Dict[int, Dict[str, FrozenSet[str]]] = {
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
    3: {
        "a": frozenset({"a", "b", "c"}),
        "b": frozenset({"a", "b", "d"}),
        "c": frozenset({"a", "c", "d"}),
        "d": frozenset({"b", "c", "d"}),
    },
}

#: Paper values for the flooding end point (Table 3, bottom).
PAPER_TABLE_3_FLOODING: Dict[int, Dict[str, FrozenSet[str]]] = {
    0: {"a": frozenset("a"), "b": frozenset("b"), "c": frozenset("c"), "d": frozenset("d")},
    1: {loc: ALL_LOCATIONS for loc in "abcd"},
    2: {loc: ALL_LOCATIONS for loc in "abcd"},
    3: {loc: ALL_LOCATIONS for loc in "abcd"},
}


@dataclass
class Table3Result:
    """Regenerated end-point tables plus the paper's reference values."""

    trivial: Dict[int, Dict[str, FrozenSet[str]]]
    flooding: Dict[int, Dict[str, FrozenSet[str]]]

    @property
    def matches_paper(self) -> bool:
        """``True`` when both halves equal the paper's Table 3."""
        return self.trivial == PAPER_TABLE_3_TRIVIAL and self.flooding == PAPER_TABLE_3_FLOODING

    def format_text(self) -> str:
        """Render both halves in the paper's layout."""
        return (
            "ploc(x, t) for global sub/unsub\n"
            + format_ploc_table(self.trivial, locations=["a", "b", "c", "d"])
            + "\n\nploc(x, t) for flooding\n"
            + format_ploc_table(self.flooding, locations=["a", "b", "c", "d"])
        )


def run(
    max_hops: int = 3,
    graph: Optional[MovementGraph] = None,
) -> Table3Result:
    """Regenerate Table 3 from the end-point uncertainty plans.

    The table's row index *t* is the hop index of the filter chain: row
    ``t`` shows the location set a broker at hop ``t`` subscribes to for a
    client at location ``x``.
    """
    graph = graph or MovementGraph.paper_example()
    ploc = PlocFunction(graph)
    trivial_plan = global_subunsub_plan(max_hops)
    flooding_plan = flooding_endpoint_plan(max_hops, graph)
    trivial: Dict[int, Dict[str, FrozenSet[str]]] = {}
    flooding: Dict[int, Dict[str, FrozenSet[str]]] = {}
    for hop in range(max_hops + 1):
        trivial[hop] = {
            location: ploc(location, trivial_plan.level_for_hop(hop))
            for location in graph.locations()
        }
        flooding[hop] = {
            location: ploc(location, flooding_plan.level_for_hop(hop))
            for location in graph.locations()
        }
    return Table3Result(trivial=trivial, flooding=flooding)
