"""Unit tests for movement graphs and the ploc function."""

import pytest

from repro.core.ploc import MovementGraph, MovementGraphError, PlocFunction, format_ploc_table


def _is_monotone(graph, max_steps):
    """Equation 1, ``ploc(x, q) ⊆ ploc(x, q + 1)``, for every q below *max_steps*."""
    ploc = PlocFunction(graph)
    return all(
        ploc(location, steps) <= ploc(location, steps + 1)
        for location in graph.locations()
        for steps in range(max_steps)
    )


class TestMovementGraph:
    def test_paper_example_neighbours(self):
        graph = MovementGraph.paper_example()
        assert graph.locations() == ["a", "b", "c", "d"]
        assert graph.neighbours("a") == ["b", "c"]
        assert graph.neighbours("d") == ["b", "c"]

    def test_line_and_grid_builders(self):
        corridor = MovementGraph.line(["r1", "r2", "r3"])
        assert corridor.neighbours("r2") == ["r1", "r3"]
        grid = MovementGraph.grid(2, 2)
        assert len(grid) == 4
        assert grid.neighbours("r0c0") == ["r0c1", "r1c0"]

    def test_complete_graph(self):
        graph = MovementGraph.complete(["x", "y", "z"])
        assert graph.diameter() == 1

    def test_rejects_self_edges_and_bad_names(self):
        graph = MovementGraph()
        with pytest.raises(MovementGraphError):
            graph.add_edge("a", "a")
        with pytest.raises(MovementGraphError):
            graph.add_location("")

    def test_unknown_location_queries_raise(self):
        graph = MovementGraph.paper_example()
        with pytest.raises(MovementGraphError):
            graph.neighbours("z")
        with pytest.raises(MovementGraphError):
            graph.reachable_within("z", 1)

    def test_diameter(self):
        assert MovementGraph.paper_example().diameter() == 2
        assert MovementGraph.line(["1", "2", "3", "4"]).diameter() == 3


class TestPloc:
    def test_zero_steps_is_current_location(self):
        graph = MovementGraph.paper_example()
        assert graph.reachable_within("a", 0) == frozenset({"a"})

    def test_one_step_matches_paper(self):
        graph = MovementGraph.paper_example()
        assert graph.reachable_within("a", 1) == frozenset({"a", "b", "c"})
        assert graph.reachable_within("b", 1) == frozenset({"a", "b", "d"})
        assert graph.reachable_within("c", 1) == frozenset({"a", "c", "d"})
        assert graph.reachable_within("d", 1) == frozenset({"b", "c", "d"})

    def test_saturation_at_two_steps(self):
        graph = MovementGraph.paper_example()
        for location in "abcd":
            assert graph.reachable_within(location, 2) == frozenset("abcd")
            assert graph.reachable_within(location, 5) == frozenset("abcd")

    def test_negative_steps_rejected(self):
        with pytest.raises(MovementGraphError):
            MovementGraph.paper_example().reachable_within("a", -1)

    def test_ploc_function_caches_and_agrees(self):
        graph = MovementGraph.paper_example()
        ploc = PlocFunction(graph)
        assert ploc("a", 1) == graph.reachable_within("a", 1)
        assert ploc("a", 1) is ploc("a", 1)  # memoised
        # The memo lives on the graph: a second function over it hits too.
        assert PlocFunction(graph)("a", 1) is ploc("a", 1)

    def test_graph_mutation_invalidates_the_memo(self):
        graph = MovementGraph.line(["a", "b", "c"])
        ploc = PlocFunction(graph)
        assert ploc("a", 1) == frozenset("ab")
        graph.add_edge("a", "c")
        assert ploc("a", 1) == frozenset("abc")
        graph.add_location("island")
        graph.add_edge("island", "a")
        assert ploc("a", 1) == frozenset({"a", "b", "c", "island"})
        assert graph.reachable_within("island", 0) == frozenset({"island"})

    def test_monotonicity_equation_1(self):
        assert _is_monotone(MovementGraph.paper_example(), 5)

    def test_monotonicity_on_grid(self):
        assert _is_monotone(MovementGraph.grid(3, 4), 8)

    def test_table_layout(self):
        ploc = PlocFunction(MovementGraph.paper_example())
        table = ploc.table(2)
        assert set(table) == {0, 1, 2}
        assert table[0]["a"] == frozenset({"a"})
        rendered = format_ploc_table(table)
        assert "x = a" in rendered
        assert "{a, b, c}" in rendered

    def test_isolated_location(self):
        graph = MovementGraph.from_edges([("a", "b")], extra_locations=["island"])
        assert graph.reachable_within("island", 3) == frozenset({"island"})
