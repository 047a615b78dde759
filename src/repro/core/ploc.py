"""Movement graphs and the ``ploc`` function of possible future locations.

Section 5.1 of the paper: the consumer's movement is restricted by a
*movement graph* over the finite location set ``L`` (Figure 7); the
function ``ploc : L x N -> 2^L`` maps a current location *x* and a number
of movement steps *q* to the set of locations the consumer could possibly
be in after *q* steps.  Because staying put is always a possible move,
``ploc(x, q) ⊆ ploc(x, q + 1)`` (Equation 1) — the property the per-hop
filter chain relies on.

Table 1 of the paper lists ``ploc(x, t)`` for the four-node example graph;
:meth:`PlocFunction.table` regenerates exactly that table.

Every per-hop filter of Section 5 is ``base ∧ location ∈ ploc(x, q)``, and
the graph is where those sets are computed *and kept*: each ``(x, q)``
answer is memoised and grown from ``(x, q - 1)`` by one frontier ring, so a
broker pays for the distinct (location, level) pairs it serves, not for
its subscriptions.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Location = str


class MovementGraphError(ValueError):
    """Raised for malformed movement graphs or unknown locations."""


class MovementGraph:
    """An undirected graph over locations defining one-step reachability.

    One movement step of the consumer corresponds to moving along one edge
    (or staying put — remaining at the current location is always
    possible, per the paper).
    """

    def __init__(self, locations: Optional[Iterable[Location]] = None) -> None:
        self._adjacency: Dict[Location, Set[Location]] = {}
        #: (location, steps) -> ploc set.  The three memos are shared by
        #: everything that asks this graph and dropped when it changes;
        #: ``_wire`` belongs to location_filter.movement_graph_to_wire.
        self._reachable: Dict[Tuple[Location, int], FrozenSet[Location]] = {}
        self._wire: Optional[Dict[str, Any]] = None
        self._key: Optional[FrozenSet[Any]] = None
        if locations:
            for location in locations:
                self.add_location(location)

    # -- construction ---------------------------------------------------------
    def add_location(self, location: Location) -> None:
        """Add a location node (idempotent)."""
        if not isinstance(location, str) or not location:
            raise MovementGraphError(
                "locations must be non-empty strings: {!r}".format(location)
            )
        if location not in self._adjacency:
            self._adjacency[location] = set()
            self._changed()

    def _changed(self) -> None:
        self._reachable.clear()
        self._wire = self._key = None

    def add_edge(self, left: Location, right: Location) -> None:
        """Declare that a consumer can move between *left* and *right* in one step."""
        if left == right:
            raise MovementGraphError("self-edges are implicit (staying put is always allowed)")
        self.add_location(left)
        self.add_location(right)
        self._adjacency[left].add(right)
        self._adjacency[right].add(left)
        self._changed()

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Location, Location]],
        extra_locations: Optional[Iterable[Location]] = None,
    ) -> "MovementGraph":
        """Build a movement graph from an edge list (plus isolated locations)."""
        graph = cls(extra_locations)
        for left, right in edges:
            graph.add_edge(left, right)
        return graph

    @classmethod
    def complete(cls, locations: Iterable[Location]) -> "MovementGraph":
        """A complete graph: every location reachable from every other in one step."""
        names = list(locations)
        graph = cls(names)
        for i, left in enumerate(names):
            for right in names[i + 1 :]:
                graph.add_edge(left, right)
        return graph

    @classmethod
    def paper_example(cls) -> "MovementGraph":
        """The four-node movement graph of Figure 7 (locations a, b, c, d).

        Edges are chosen so that the resulting ``ploc`` values reproduce
        Table 1 of the paper::

            ploc(a, 1) = {a, b, c}   ploc(b, 1) = {a, b, d}
            ploc(c, 1) = {a, c, d}   ploc(d, 1) = {b, c, d}

        i.e. the 4-cycle a - b - d - c - a.
        """
        return cls.from_edges([("a", "b"), ("b", "d"), ("d", "c"), ("c", "a")])

    @classmethod
    def line(cls, locations: Sequence[Location]) -> "MovementGraph":
        """A corridor / street: locations in a row, neighbours adjacent."""
        names = list(locations)
        if not names:
            raise MovementGraphError("a line movement graph needs at least one location")
        graph = cls(names)
        for left, right in zip(names, names[1:]):
            graph.add_edge(left, right)
        return graph

    @classmethod
    def grid(cls, rows: int, columns: int, name_format: str = "r{row}c{col}") -> "MovementGraph":
        """A rows x columns grid of locations (city blocks, building floors)."""
        if rows < 1 or columns < 1:
            raise MovementGraphError("grid dimensions must be positive")
        graph = cls()
        for row in range(rows):
            for col in range(columns):
                name = name_format.format(row=row, col=col)
                graph.add_location(name)
                if row > 0:
                    graph.add_edge(name, name_format.format(row=row - 1, col=col))
                if col > 0:
                    graph.add_edge(name, name_format.format(row=row, col=col - 1))
        return graph

    # -- inspection -------------------------------------------------------------
    def locations(self) -> List[Location]:
        """All locations, sorted."""
        return sorted(self._adjacency)

    def neighbours(self, location: Location) -> List[Location]:
        """Locations reachable from *location* in exactly one move (excluding itself)."""
        self._require(location)
        return sorted(self._adjacency[location])

    def __contains__(self, location: Location) -> bool:
        return location in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def canonical_key(self) -> FrozenSet[Any]:
        """Hashable identity of the graph: its locations and ``(left, right)`` edges.

        Equal for equal graphs however they were built (a broker interns
        decoded graphs by it); a frozenset hashes once, whatever its size.
        """
        if self._key is None:
            self._key = frozenset(self._adjacency).union(
                (left, right)
                for left, neighbours in self._adjacency.items()
                for right in neighbours
                if left < right
            )
        return self._key

    def diameter(self) -> int:
        """The largest number of steps needed between any two connected locations."""
        best = 0
        for location in self._adjacency:
            depths = self._bfs_depths(location)
            if depths:
                best = max(best, max(depths.values()))
        return best

    def _require(self, location: Location) -> None:
        if location not in self._adjacency:
            raise MovementGraphError("unknown location: {!r}".format(location))

    def _bfs_depths(self, source: Location) -> Dict[Location, int]:
        depths = {source: 0}
        frontier = deque([source])
        while frontier:
            current = frontier.popleft()
            for neighbour in self._adjacency[current]:
                if neighbour not in depths:
                    depths[neighbour] = depths[current] + 1
                    frontier.append(neighbour)
        return depths

    # -- ploc ---------------------------------------------------------------------
    def reachable_within(self, location: Location, steps: int) -> FrozenSet[Location]:
        """``ploc(location, steps)``: locations reachable in at most *steps* moves.

        Staying put counts as a (trivial) move, so the result always
        contains *location* and is monotone in *steps* (Equation 1 of the
        paper).  Results are memoised until the graph next changes; a miss
        grows the set of ``steps - 1`` by the neighbours of its frontier
        ring (what it added to ``steps - 2``) instead of searching again.
        """
        memo = self._reachable
        cached = memo.get((location, steps))
        if cached is not None:
            return cached
        self._require(location)
        if steps < 0:
            raise MovementGraphError("steps must be non-negative")
        inner: FrozenSet[Location] = frozenset()
        current = memo.setdefault((location, 0), frozenset((location,)))
        for radius in range(1, steps + 1):
            if len(current) == len(inner):
                break  # the last ring was empty: every further level is this set
            grown = memo.get((location, radius))
            if grown is None:
                grown = current.union(*[self._adjacency[member] for member in current - inner])
                if len(grown) == len(current):
                    grown = current
                memo[(location, radius)] = grown
            inner, current = current, grown
        memo[(location, steps)] = current
        return current


class PlocFunction:
    """The ``ploc`` function for one movement graph.

    A thin callable view used by the tables, the adaptivity plans and the
    tests; the answers (and their memo) belong to the graph, which the
    per-hop subscription states ask directly.
    """

    def __init__(self, graph: MovementGraph) -> None:
        self.graph = graph

    def __call__(self, location: Location, steps: int) -> FrozenSet[Location]:
        """``ploc(location, steps)`` as a frozen set of locations."""
        return self.graph.reachable_within(location, steps)

    def table(self, max_steps: int) -> Dict[int, Dict[Location, FrozenSet[Location]]]:
        """``ploc(x, t)`` for all locations and ``t = 0 .. max_steps``.

        The returned mapping reproduces the layout of Table 1 in the paper:
        outer key is the step count *t*, inner key the location *x*.
        """
        out: Dict[int, Dict[Location, FrozenSet[Location]]] = {}
        for steps in range(max_steps + 1):
            out[steps] = {
                location: self(location, steps) for location in self.graph.locations()
            }
        return out


def format_ploc_table(
    table: Mapping[int, Mapping[Location, FrozenSet[Location]]],
    locations: Optional[Sequence[Location]] = None,
) -> str:
    """Render a ploc table as text in the style of the paper's Table 1."""
    steps = sorted(table)
    if locations is None:
        first = table[steps[0]] if steps else {}
        locations = sorted(first)
    lines = ["t    " + "  ".join("x = {}".format(loc).ljust(18) for loc in locations)]
    for step in steps:
        row = ["{:<4d}".format(step)]
        for location in locations:
            members = ", ".join(sorted(table[step][location]))
            row.append("{{{}}}".format(members).ljust(18))
        lines.append("  ".join(row))
    return "\n".join(lines)
