"""Unit tests for the per-broker logical-mobility state."""

import pytest

from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import MYLOC, LocationDependentFilter
from repro.core.logical import LogicalSubscriptionState, filter_chain, location_sets_chain
from repro.core.ploc import MovementGraph


def make_state(hop, location="a", plan=None, vicinity=0):
    graph = MovementGraph.paper_example()
    return LogicalSubscriptionState(
        client_id="C",
        subscription_id="sub",
        location_filter=LocationDependentFilter(
            {"service": "parking", "location": MYLOC}, vicinity=vicinity
        ),
        movement_graph=graph,
        plan=plan or UncertaintyPlan.static(3),
        current_location=location,
        hop_index=hop,
    )


class TestFiltersPerHop:
    def test_hop0_is_exact(self):
        state = make_state(0)
        assert state.location_set() == frozenset({"a"})
        assert state.current_filter().matches({"service": "parking", "location": "a"})
        assert not state.current_filter().matches({"service": "parking", "location": "b"})

    def test_hop1_one_step_lookahead(self):
        state = make_state(1)
        assert state.location_set() == frozenset({"a", "b", "c"})

    def test_next_hop_filter_is_wider(self):
        state = make_state(1)
        next_filter = state.next_hop_filter()
        for loc in "abcd":
            assert next_filter.matches({"service": "parking", "location": loc})

    def test_vicinity_widens_every_hop(self):
        narrow = make_state(0, vicinity=0)
        wide = make_state(0, vicinity=1)
        assert narrow.location_set() < wide.location_set()

    def test_token(self):
        assert make_state(0).token == "C/sub"

    def test_filter_at_other_location(self):
        state = make_state(1, location="a")
        assert state.filter_at("d").matches({"service": "parking", "location": "b"})
        assert not state.filter_at("d").matches({"service": "parking", "location": "a"})


class TestLocationChanges:
    def test_delta_reports_added_and_removed(self):
        state = make_state(1, location="a")
        delta = state.apply_location_change("b")
        # ploc(a,1) = {a,b,c}; ploc(b,1) = {a,b,d}
        assert delta.removed == frozenset({"c"})
        assert delta.added == frozenset({"d"})
        assert delta.changed
        assert state.current_location == "b"

    def test_unchanged_set_detected(self):
        plan = UncertaintyPlan.flooding(3, MovementGraph.paper_example())
        state = make_state(2, location="a", plan=plan)
        delta = state.apply_location_change("b")
        assert not delta.changed

    def test_unknown_location_rejected(self):
        with pytest.raises(ValueError):
            make_state(0).apply_location_change("nowhere")

    def test_old_and_new_filters_in_delta(self):
        state = make_state(0, location="a")
        delta = state.apply_location_change("d")
        assert delta.old_filter.matches({"service": "parking", "location": "a"})
        assert delta.new_filter.matches({"service": "parking", "location": "d"})
        assert not delta.new_filter.matches({"service": "parking", "location": "a"})


class TestChainConsistency:
    def test_fork_for_next_hop(self):
        state = make_state(1)
        upstream = LogicalSubscriptionState.from_subscribe(
            state.subscribe_message(state.hop_index + 1), state.destination
        )
        assert upstream.hop_index == 2
        assert upstream.chain_is_consistent(state)

    def test_chain_consistency_requires_adjacent_hops(self):
        assert not make_state(3).chain_is_consistent(make_state(1))

    def test_chain_with_pending_update_is_tolerated(self):
        downstream = make_state(0, location="b")
        upstream = make_state(1, location="a")
        assert upstream.chain_is_consistent(downstream)

    def test_filter_chain_set_inclusion(self):
        graph = MovementGraph.paper_example()
        ld = LocationDependentFilter({"service": "parking", "location": MYLOC})
        for plan in (UncertaintyPlan.static(3), UncertaintyPlan.trivial(3)):
            chain = filter_chain(ld, graph, plan, "a", hops=3)
            notifications = [{"service": "parking", "location": loc} for loc in "abcd"]
            for narrower, wider in zip(chain, chain[1:]):
                for notification in notifications:
                    if narrower.matches(notification):
                        assert wider.matches(notification)

    def test_location_sets_chain_matches_table2_row0(self):
        graph = MovementGraph.paper_example()
        sets = location_sets_chain(graph, UncertaintyPlan.static(3), "a", hops=3)
        assert sets == [
            frozenset({"a"}),
            frozenset({"a", "b", "c"}),
            frozenset({"a", "b", "c", "d"}),
            frozenset({"a", "b", "c", "d"}),
        ]

    def test_describe(self):
        assert "hop=1" in make_state(1).describe()
