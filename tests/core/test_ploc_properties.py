"""Property-based tests (hypothesis) for ploc and the uncertainty plans."""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.core.adaptivity import UncertaintyPlan, adaptive_levels
from repro.core.location_filter import MYLOC, LocationDependentFilter
from repro.core.logical import LogicalSubscriptionState
from repro.filters.merging import FilterCaches
from repro.core.ploc import MovementGraph, PlocFunction


@st.composite
def movement_graphs(draw):
    """Small random connected movement graphs (built as random trees plus extras)."""
    size = draw(st.integers(min_value=2, max_value=8))
    names = ["L{}".format(index) for index in range(size)]
    graph = MovementGraph(names)
    # Random tree backbone keeps the graph connected.
    for index in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=index - 1))
        graph.add_edge(names[parent], names[index])
    # A few extra edges are fine for ploc (the movement graph need not be a tree).
    extra = draw(st.integers(min_value=0, max_value=size))
    for _ in range(extra):
        left = draw(st.integers(min_value=0, max_value=size - 1))
        right = draw(st.integers(min_value=0, max_value=size - 1))
        if left != right:
            graph.add_edge(names[left], names[right])
    return graph


def within_by_definition(edges, source, steps):
    """Locations at breadth-first depth <= *steps* from *source*, from the edge list."""
    depths = {source: 0}
    frontier = deque([source])
    while frontier:
        current = frontier.popleft()
        for left, right in edges:
            for here, there in ((left, right), (right, left)):
                if here == current and there not in depths:
                    depths[there] = depths[current] + 1
                    frontier.append(there)
    return frozenset(location for location, depth in depths.items() if depth <= steps)


@settings(max_examples=150, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=9),
    edge_draws=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.booleans()), max_size=14
    ),
    queries=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 7)), min_size=1, max_size=12),
)
def test_frontier_grown_ploc_equals_the_bfs_definition(size, edge_draws, queries):
    """Growing the memoised set ring by ring answers what a fresh breadth-first
    search does — on disconnected graphs too, in any order of queries, and
    after every ``add_edge`` (which may join components the memo kept apart)."""
    names = ["L{}".format(index) for index in range(size)]
    graph = MovementGraph(names)
    edges = []

    def check():
        for location_index, steps in queries:
            location = names[location_index % size]
            assert graph.reachable_within(location, steps) == within_by_definition(
                edges, location, steps
            )

    check()
    for left, right, query_between in edge_draws:
        left, right = names[left % size], names[right % size]
        if left == right:
            continue
        graph.add_edge(left, right)
        edges.append((left, right))
        if query_between:
            check()
    check()
    for location in names:
        # Saturated levels share the set of the level that saturated.
        assert graph.reachable_within(location, size + 1) is graph.reachable_within(
            location, size + 2
        )


@settings(max_examples=100, deadline=None)
@given(
    graph=movement_graphs(),
    levels=st.lists(st.integers(1, 3), max_size=3).map(lambda drawn: [0] + sorted(drawn)),
    vicinity=st.integers(0, 2),
    walk=st.lists(st.integers(0, 7), min_size=1, max_size=6),
)
def test_interned_filters_equal_fresh_instantiations(graph, levels, vicinity, walk):
    """What a state hands out from its network's table is, by key, what the
    location-dependent filter instantiates from scratch — at every hop, after
    every move — and equal requests get the very same filter object."""
    location_filter = LocationDependentFilter(
        {"service": "parking", "location": MYLOC}, vicinity=vicinity
    )
    plan = UncertaintyPlan(levels=levels, name="drawn")
    locations = graph.locations()
    caches = FilterCaches()
    states = [
        LogicalSubscriptionState(
            "C", "s", location_filter, graph, plan, locations[0], hop, caches=caches
        )
        for hop in range(len(levels) + 1)
    ]
    for step in walk:
        location = locations[step % len(locations)]
        for state in states:
            delta = state.apply_location_change(location)
            assert delta.new_filter is state.current_filter()
            fresh = location_filter.instantiate(state.location_set())
            assert state.current_filter().key() == fresh.key()
            assert state.next_hop_filter().key() == (
                location_filter.instantiate(state.location_set(ahead=1)).key()
            )
            assert state.filter_at(locations[-1]).key() == (
                location_filter.instantiate(state.location_set(locations[-1])).key()
            )
        for near, far in zip(states, states[1:]):
            assert near.next_hop_filter() is far.current_filter()
            assert far.chain_is_consistent(near)


@settings(max_examples=100, deadline=None)
@given(graph=movement_graphs(), steps=st.integers(min_value=0, max_value=6))
def test_ploc_contains_current_location(graph, steps):
    ploc = PlocFunction(graph)
    for location in graph.locations():
        assert location in ploc(location, steps)


@settings(max_examples=100, deadline=None)
@given(graph=movement_graphs(), steps=st.integers(min_value=0, max_value=5))
def test_ploc_is_monotone_in_steps(graph, steps):
    """Equation 1: ploc(x, q) ⊆ ploc(x, q + 1)."""
    ploc = PlocFunction(graph)
    for location in graph.locations():
        assert ploc(location, steps) <= ploc(location, steps + 1)


@settings(max_examples=100, deadline=None)
@given(graph=movement_graphs())
def test_ploc_saturates_at_diameter(graph):
    ploc = PlocFunction(graph)
    diameter = graph.diameter()
    for location in graph.locations():
        saturated = ploc(location, diameter)
        assert saturated == ploc(location, diameter + 3)


@settings(max_examples=100, deadline=None)
@given(graph=movement_graphs(), steps=st.integers(min_value=0, max_value=4))
def test_ploc_is_symmetric_reachability(graph, steps):
    """y ∈ ploc(x, q) iff x ∈ ploc(y, q) — movement edges are undirected."""
    ploc = PlocFunction(graph)
    locations = graph.locations()
    for x in locations:
        for y in ploc(x, steps):
            assert x in ploc(y, steps)


@settings(max_examples=200, deadline=None)
@given(
    dwell=st.floats(min_value=0.001, max_value=100.0, allow_nan=False, allow_infinity=False),
    delays=st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
)
def test_adaptive_levels_are_valid_plans(dwell, delays):
    """Adaptive levels always form a valid non-decreasing plan starting at 0."""
    levels = adaptive_levels(dwell, delays)
    assert levels[0] == 0
    assert all(level >= 1 for level in levels[1:])
    assert levels == sorted(levels)
    plan = UncertaintyPlan(levels=levels, name="adaptive")  # must not raise
    assert plan.level_for_hop(len(levels) + 5) == levels[-1]


@settings(max_examples=100, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
    scale=st.floats(min_value=1.5, max_value=100.0, allow_nan=False, allow_infinity=False),
)
def test_slower_clients_never_need_more_lookahead(delays, scale):
    """Increasing Δ never increases any hop's uncertainty level."""
    fast = adaptive_levels(1.0, delays)
    slow = adaptive_levels(scale, delays)
    assert all(s <= f for s, f in zip(slow, fast))
