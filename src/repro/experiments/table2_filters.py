"""Table 2 — per-hop filter contents as the client moves a → b → d.

The paper's example (Section 5.2, network of Figure 6 with brokers
B1..B3, i.e. filters F0..F3) uses the static plan ``level_i = i`` and the
itinerary ``loc(1) = a, loc(2) = b, loc(3) = d``::

    time t  F3           F2           F1         F0
    0       {a,b,c,d}    {a,b,c,d}    {a,b,c}    {a}
    1       {a,b,c,d}    {a,b,c,d}    {a,b,d}    {b}
    2       {a,b,c,d}    {a,b,c,d}    {b,c,d}    {d}

``run()`` reproduces the table in two independent ways:

* analytically, from :func:`repro.core.logical.location_sets_chain`, and
* operationally, by running the actual broker network (line of four
  brokers), moving the client, and reading back the concrete filters each
  broker stores — which checks that the distributed implementation agrees
  with the closed-form definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import MYLOC
from repro.core.logical import location_sets_chain
from repro.core.ploc import MovementGraph
from repro.experiments.backends import Backend, build_network
from repro.topology.builders import line_topology

#: The values printed in the paper's Table 2 (keyed by time step, then hop).
PAPER_TABLE_2: Dict[int, List[FrozenSet[str]]] = {
    0: [frozenset("a"), frozenset({"a", "b", "c"}), frozenset("abcd"), frozenset("abcd")],
    1: [frozenset("b"), frozenset({"a", "b", "d"}), frozenset("abcd"), frozenset("abcd")],
    2: [frozenset("d"), frozenset({"b", "c", "d"}), frozenset("abcd"), frozenset("abcd")],
}

#: The client's locations at times 0, 1, 2 in the paper's example.
PAPER_ITINERARY: Sequence[str] = ("a", "b", "d")


@dataclass
class Table2Result:
    """Analytical and operational per-hop location sets for each time step."""

    analytical: Dict[int, List[FrozenSet[str]]]
    operational: Dict[int, List[FrozenSet[str]]]
    reference: Dict[int, List[FrozenSet[str]]]

    @property
    def matches_paper(self) -> bool:
        """``True`` when the analytical chain equals the paper's Table 2."""
        return self.analytical == self.reference

    @property
    def implementation_agrees(self) -> bool:
        """``True`` when the broker network realises the analytical chain."""
        return self.operational == self.analytical

    def format_text(self) -> str:
        """Render the analytical table in the paper's layout (F3 .. F0)."""
        lines = ["time t  " + "  ".join("F{}".format(i).ljust(14) for i in (3, 2, 1, 0))]
        for step in sorted(self.analytical):
            sets = self.analytical[step]
            row = ["{:<7d}".format(step)]
            for hop in (3, 2, 1, 0):
                row.append("{{{}}}".format(", ".join(sorted(sets[hop]))).ljust(14))
            lines.append("  ".join(row))
        return "\n".join(lines)


def _operational_chain(
    graph: MovementGraph,
    plan: UncertaintyPlan,
    itinerary: Sequence[str],
    hops: int,
    backend: Backend,
) -> Dict[int, List[FrozenSet[str]]]:
    """Read the concrete per-hop location sets out of a running broker network."""
    network = build_network(
        line_topology(hops + 1),
        strategy="covering",
        latency=0.001,
        backend=backend,
    )
    producer = network.add_client("producer", "B{}".format(hops + 1))
    producer.advertise({"service": "demo"})
    consumer = network.add_client("consumer", "B1")
    subscription_id = consumer.subscribe_location_dependent(
        {"service": "demo", "location": MYLOC},
        movement_graph=graph,
        plan=plan,
        initial_location=itinerary[0],
    )
    network.settle()

    out: Dict[int, List[FrozenSet[str]]] = {}
    for step, location in enumerate(itinerary):
        if step > 0:
            consumer.set_location(location)
            network.settle()
        sets: List[FrozenSet[str]] = []
        for hop in range(hops + 1):
            broker = network.broker("B{}".format(hop + 1))
            state = broker.logical.state_for("consumer", subscription_id)
            sets.append(state.location_set() if state is not None else frozenset())
        out[step] = sets
    network.close()
    return out


def run(
    graph: Optional[MovementGraph] = None,
    itinerary: Sequence[str] = PAPER_ITINERARY,
    hops: int = 3,
    backend: Backend = Backend(),
) -> Table2Result:
    """Regenerate Table 2 both analytically and from the broker network."""
    graph = graph or MovementGraph.paper_example()
    plan = UncertaintyPlan.static(hops)
    analytical = {
        step: location_sets_chain(graph, plan, location, hops)
        for step, location in enumerate(itinerary)
    }
    operational = _operational_chain(graph, plan, itinerary, hops, backend)
    return Table2Result(analytical=analytical, operational=operational, reference=PAPER_TABLE_2)
