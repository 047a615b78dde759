"""Unit tests for the delta-maintained desired forwarding sets.

``NeighbourForwardingState`` must track the from-scratch specification
(``tests/oracles/forwarding.py``) byte-for-byte under arbitrary
routing-table churn — including the hard covering cases: a new filter
evicting selected covers, removal of a selected cover resurrecting its
members, and a resurrected filter stealing members from later covers.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.base import Broker, BrokerConfig
from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import (
    MYLOC,
    LocationDependentFilter,
    LocationDependentSubscribe,
    LocationDependentUnsubscribe,
)
from repro.core.ploc import MovementGraph
from repro.filters.covering import minimal_cover_set
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.messages.admin import Unsubscribe
from repro.messages.mobility import LocationUpdate
from repro.routing.strategies import make_strategy
from repro.runtime.latency import FixedLatency
from repro.sim.engine import Simulator
from repro.sim.network import Link

from tests.dispatch.test_plan_oracle import mutate
from tests.oracles.forwarding import desired_forwarding, first_cover, scratch_forwarding


def _make_broker(strategy="covering", neighbours=("N1", "N2"), use_advertisements=False):
    simulator = Simulator()
    broker = Broker(
        "B",
        simulator,
        make_strategy(strategy),
        config=BrokerConfig(use_advertisements=use_advertisements),
    )
    sink = []
    for name in neighbours:
        broker.add_link(
            Link(
                simulator, "B", name, lambda message, link: sink.append(message), FixedLatency(0.0)
            )
        )
    return broker, sink


def _delta_desired(broker, neighbour):
    """The maintained desired dict, rebuilding exactly when a refresh would."""
    state = broker._forwarding_states[neighbour]
    if not state.valid:
        broker._rebuild_forwarding_state(neighbour, state)
    elif state.order_dirty:
        state.rebuild_reduction()
    return state.desired


def _assert_in_sync(broker):
    for neighbour in broker.neighbours():
        assert _delta_desired(broker, neighbour) == desired_forwarding(broker, neighbour)


def _loc_filter(*locations):
    return Filter({"service": "parking", "location": ("in", tuple(locations))})


#: Filters on different attributes: no pair of them merges.
_A1, _B2, _C3 = Filter({"a": 1}), Filter({"b": 2}), Filter({"c": 3})

#: name -> (steps, expected covers in selection order).  The first step
#: lists the filters subscribed up front, each later one the
#: ("add" | "remove", filter) changes applied before one refresh.
_MERGE_SCENARIOS = {
    "inert_append": ([[_A1, _B2], [("add", _C3)]], [_A1, _B2, _C3]),
    "merging_append": (
        [[_loc_filter("a"), _B2], [("add", _loc_filter("c"))]],
        [_loc_filter("a", "c"), _B2],
    ),
    # The new filter equals an intermediate of the earlier merge, not a root.
    "append_covered_by_a_merge_product": (
        [[_loc_filter("a"), _loc_filter("b"), _loc_filter("c")], [("add", _loc_filter("a", "b"))]],
        [_loc_filter("a", "b", "c")],
    ),
    "singleton_removal": ([[_A1, _B2, _C3], [("remove", _B2)]], [_A1, _C3]),
    "group_member_removal": (
        [[_loc_filter("a"), _loc_filter("b"), _C3], [("remove", _loc_filter("b"))]],
        [_loc_filter("a"), _C3],
    ),
    "removal_and_inert_append": ([[_A1, _B2], [("remove", _B2), ("add", _C3)]], [_A1, _C3]),
    # _A1's first row dies while a later one survives: it moves behind _B2.
    "reorder": ([[_A1, _B2], [("add", _A1), ("remove", _A1)]], [_B2, _A1]),
    "later_append_merges_with_an_inert_one": (
        [[_A1], [("add", _loc_filter("x"))], [("add", _loc_filter("y"))]],
        [_A1, _loc_filter("x", "y")],
    ),
}


class TestCoverReassignment:
    def test_new_filter_evicts_covers_and_reassigns_members(self):
        broker, _ = _make_broker()
        table = broker.subscription_table
        narrow = _loc_filter("a")
        mid = _loc_filter("a", "b")
        table.add(narrow, "c1", "s1")
        table.add(mid, "c1", "s2")
        _assert_in_sync(broker)
        # ``mid`` covers ``narrow``: only mid is forwarded.
        state = broker._forwarding_states["N1"]
        assert [key for _, key in state.selection] == [mid.key()]
        # A broader filter evicts mid and adopts both members.
        broad = _loc_filter("a", "b", "c")
        table.add(broad, "c2", "s3")
        _assert_in_sync(broker)
        assert [key for _, key in state.selection] == [broad.key()]
        assert state.assigned[narrow.key()] == broad.key()
        assert state.assigned[mid.key()] == broad.key()

    def test_removing_selected_cover_resurrects_members(self):
        broker, _ = _make_broker()
        table = broker.subscription_table
        narrow = _loc_filter("a")
        other = _loc_filter("c", "d")
        broad = _loc_filter("a", "b")
        table.add(narrow, "c1", "s1")
        table.add(other, "c1", "s2")
        table.add(broad, "c2", "s3")
        _assert_in_sync(broker)
        state = broker._forwarding_states["N1"]
        assert narrow.key() not in state.selected
        # Removing the cover resurrects the member at its original position.
        table.remove(broad, "c2", "s3")
        _assert_in_sync(broker)
        assert [key for _, key in state.selection] == [narrow.key(), other.key()]

    def test_resurrected_filter_steals_members_of_later_covers(self):
        broker, _ = _make_broker()
        table = broker.subscription_table
        # Canonical order: R, C, x, F — F strictly covers R; x is covered
        # by both R and C.  With F present the selection is [C, F] and x
        # is assigned to C; removing F resurrects R, which steals x.
        r = _loc_filter("1", "2", "3")
        c = _loc_filter("2", "3", "4")
        x = _loc_filter("2", "3")
        f = _loc_filter("1", "2", "3", "5")
        table.add(r, "c1", "s1")
        table.add(c, "c1", "s2")
        table.add(x, "c1", "s3")
        table.add(f, "c2", "s4")
        _assert_in_sync(broker)
        state = broker._forwarding_states["N1"]
        assert [key for _, key in state.selection] == [c.key(), f.key()]
        assert state.assigned[x.key()] == c.key()
        table.remove(f, "c2", "s4")
        _assert_in_sync(broker)
        assert [key for _, key in state.selection] == [r.key(), c.key()]
        assert state.assigned[x.key()] == r.key()

    def test_order_perturbation_then_removal_in_one_operation(self):
        """Regression: removing both rows of a selected filter in one call.

        ``remove_subject`` kills the filter's first contributing row (an
        order perturbation) and then its last row before any refresh;
        the selection's (pos, key) tuple must stay consistent so the
        second removal does not crash.
        """
        broker, _ = _make_broker()
        table = broker.subscription_table
        shared = _loc_filter("a", "b")
        table.add(shared, "c1", "tok")
        table.add(_loc_filter("c"), "c1", "other")
        table.add(shared, "c2", "tok")
        _assert_in_sync(broker)
        table.remove_subject("tok")  # removes both rows of ``shared``
        _assert_in_sync(broker)
        assert shared.key() not in broker._forwarding_states["N1"].entries

    def test_matchnone_rows_are_skipped_in_every_mode(self):
        """MatchNone subscriptions are forwarded by no mode (equivalence)."""
        broker, _ = _make_broker()
        table = broker.subscription_table
        table.add(MatchNone(), "c1", "s1")
        table.add(_loc_filter("a"), "c1", "s2")
        _assert_in_sync(broker)
        desired = _delta_desired(broker, "N1")
        assert {subject for _, subject in desired} == {"s2"}
        table.remove(MatchNone(), "c1", "s1")
        _assert_in_sync(broker)

    def test_order_perturbation_triggers_local_rebuild(self):
        broker, _ = _make_broker()
        table = broker.subscription_table
        shared = _loc_filter("a", "b")
        table.add(shared, "c1", "s1")
        table.add(_loc_filter("c"), "c1", "s2")
        table.add(shared, "c2", "s3")
        _assert_in_sync(broker)
        # Killing the *first* contributing row of ``shared`` moves its
        # canonical position behind the other filter.
        table.remove(shared, "c1", "s1")
        state = broker._forwarding_states["N1"]
        assert state.order_dirty
        _assert_in_sync(broker)
        assert not state.order_dirty


class TestModesAndFlags:
    def test_simple_strategy_forwards_every_filter(self):
        broker, _ = _make_broker(strategy="simple")
        table = broker.subscription_table
        table.add(_loc_filter("a"), "c1", "s1")
        table.add(_loc_filter("a", "b"), "c1", "s2")
        _assert_in_sync(broker)
        state = broker._forwarding_states["N1"]
        assert len(state.selection) == 2

    def test_merging_strategy_uses_delta_mode(self):
        broker, _ = _make_broker(strategy="merging")
        pair_cache = broker.filter_caches.merge_pairs
        assert all(
            state.merge_pairs is pair_cache for state in broker._forwarding_states.values()
        )

    def test_flooding_states_receive_no_contribution(self):
        broker, sink = _make_broker(strategy="flooding")
        broker.subscription_table.add(_loc_filter("a"), "c1", "s1")
        broker.subscription_table.add(_loc_filter("b"), "N2", "s2")
        _assert_in_sync(broker)
        broker._refresh_all_forwarding()
        broker.clock.run()
        assert all(state.entries == {} for state in broker._forwarding_states.values())
        assert sink == []
        # A pair the relocation protocol wrote behind the refresh's back
        # is reconciled away by the next refresh: one Unsubscribe.
        moved = _loc_filter("c")
        broker._forwarded_subscriptions["N1"][(moved.key(), "tok")] = moved
        broker._forwarding_states["N1"].full_diff = True
        broker._refresh_all_forwarding()
        broker.clock.run()
        assert [(type(message), message.filter, message.subject) for message in sink] == [
            (Unsubscribe, moved, "tok")
        ]
        assert broker._forwarded_subscriptions["N1"] == {}

    def test_refresh_applies_deltas_without_table_scan(self):
        broker, _ = _make_broker()
        broker.subscription_table.add(_loc_filter("a"), "c1", "s1")
        broker._refresh_all_forwarding()
        calls = []
        original = broker.subscription_table.entries
        broker.subscription_table.entries = lambda: calls.append(1) or original()
        broker.subscription_table.add(_loc_filter("b"), "c1", "s2")
        broker._refresh_all_forwarding()
        assert calls == []
        assert broker.forwarded_subscription_count("N1") == 2

    def test_subject_refcounts_across_destinations(self):
        broker, _ = _make_broker()
        table = broker.subscription_table
        shared = _loc_filter("a")
        # The same (filter, subject) from two destinations must survive
        # the removal of either one.
        table.add(shared, "c1", "tok")
        table.add(shared, "c2", "tok")
        _assert_in_sync(broker)
        table.remove(shared, "c1", "tok")
        _assert_in_sync(broker)
        assert (shared.key(), "tok") in broker._forwarding_states["N1"].desired
        table.remove(shared, "c2", "tok")
        _assert_in_sync(broker)
        assert broker._forwarding_states["N1"].desired == {}


class TestMergingDeltaState:
    """The merge layer between the input entries and the covering selection."""

    def test_two_filters_forward_one_merged_cover(self):
        broker, _ = _make_broker(strategy="merging")
        table = broker.subscription_table
        table.add(_loc_filter("a"), "c1", "s1")
        table.add(_loc_filter("b"), "c2", "s2")
        _assert_in_sync(broker)
        desired = _delta_desired(broker, "N1")
        merged = _loc_filter("a", "b")
        assert set(desired) == {(merged.key(), "s1"), (merged.key(), "s2")}

    def test_roam_chain_keeps_merged_cover_in_sync(self):
        """A roaming ploc chain: each hop replaces one window filter."""
        broker, _ = _make_broker(strategy="merging")
        table = broker.subscription_table
        windows = [_loc_filter("l{}".format(i), "l{}".format(i + 1)) for i in range(6)]
        table.add(windows[0], "c1", "tok")
        _assert_in_sync(broker)
        for old, new in zip(windows, windows[1:]):
            table.add(new, "c1", "tok")
            _assert_in_sync(broker)
            table.remove(old, "c1", "tok")
            _assert_in_sync(broker)
        desired = _delta_desired(broker, "N1")
        assert set(desired) == {(windows[-1].key(), "tok")}

    def test_losing_a_member_splits_the_merged_cover(self):
        broker, _ = _make_broker(strategy="merging")
        table = broker.subscription_table
        disjoint = Filter({"service": "fuel", "location": ("in", ("x",))})
        table.add(_loc_filter("a"), "c1", "s1")
        table.add(_loc_filter("b"), "c1", "s2")
        table.add(disjoint, "c2", "s3")
        _assert_in_sync(broker)
        table.remove(_loc_filter("b"), "c1", "s2")
        _assert_in_sync(broker)
        desired = _delta_desired(broker, "N1")
        assert set(desired) == {
            (_loc_filter("a").key(), "s1"),
            (disjoint.key(), "s3"),
        }

    def test_subject_only_churn_skips_re_reduction(self):
        broker, _ = _make_broker(strategy="merging")
        table = broker.subscription_table
        table.add(_loc_filter("a"), "c1", "s1")
        table.add(_loc_filter("b"), "c2", "s2")
        broker._refresh_all_forwarding()
        state = broker._forwarding_states["N1"]
        pair_cache = state.merge_pairs
        lookups_before = pair_cache.hits + pair_cache.misses
        # A second subject on an existing filter must not re-merge.
        table.add(_loc_filter("a"), "c1", "s3")
        assert not state.order_dirty
        broker._refresh_all_forwarding()
        assert pair_cache.hits + pair_cache.misses == lookups_before
        _assert_in_sync(broker)
        merged = _loc_filter("a", "b")
        assert (merged.key(), "s3") in state.desired

    def test_re_reduction_of_unchanged_inputs_runs_no_raw_merge(self):
        broker, _ = _make_broker(strategy="merging", neighbours=("N1",))
        table = broker.subscription_table
        for index, location in enumerate("abc"):
            table.add(_loc_filter(location), "c1", "s{}".format(index))
        table.add(Filter({"service": "fuel"}), "c2", "s3")
        broker._refresh_all_forwarding()
        state = broker._forwarding_states["N1"]
        desired = dict(state.desired)
        misses = state.merge_pairs.misses
        # A wholesale rebuild over the same inputs: every pair, the merge
        # products included, is answered from the network's pair cache.
        broker._invalidate_forwarding_states()
        assert _delta_desired(broker, "N1") == desired
        assert state.merge_pairs.misses == misses

    @pytest.mark.parametrize("scenario", sorted(_MERGE_SCENARIOS))
    def test_structural_change_re_reduces_to_the_specification(self, scenario):
        """Each kind of structural input change re-reduces to ``merge_filters``.

        The filters of a scenario's first step are subscribed in order;
        every later step applies all of its table changes before one
        refresh.  A ``remove`` takes away the filter's earliest row.
        """
        steps, covers = _MERGE_SCENARIOS[scenario]
        broker, _ = _make_broker(strategy="merging", neighbours=("N1",))
        table = broker.subscription_table
        rows = {}
        numbers = iter(range(100))

        def add(filter_):
            # A client of its own: every add is a new row.
            number = next(numbers)
            row = ("c{}".format(number), "s{}".format(number))
            rows.setdefault(filter_.key(), []).append(row)
            table.add(filter_, *row)

        initial, *changes = steps
        for filter_ in initial:
            add(filter_)
        _assert_in_sync(broker)
        for change in changes:
            for kind, filter_ in change:
                if kind == "add":
                    add(filter_)
                else:
                    table.remove(filter_, *rows[filter_.key()].pop(0))
            _assert_in_sync(broker)
        state = broker._forwarding_states["N1"]
        assert [key for _, key in state.selection] == [filter_.key() for filter_ in covers]
        assert {key for key, _ in state.desired} == {filter_.key() for filter_ in covers}

    def test_merging_refresh_applies_deltas_without_table_scan(self):
        broker, _ = _make_broker(strategy="merging")
        broker.subscription_table.add(_loc_filter("a"), "c1", "s1")
        broker._refresh_all_forwarding()
        calls = []
        original = broker.subscription_table.entries
        broker.subscription_table.entries = lambda: calls.append(1) or original()
        broker.subscription_table.add(_loc_filter("b"), "c1", "s2")
        broker._refresh_all_forwarding()
        assert calls == []
        # Both filters merged into one forwarded cover carrying two pairs.
        assert broker.forwarded_subscription_count("N1") == 2
        merged = _loc_filter("a", "b")
        assert all(key == merged.key() for key, _ in broker._forwarded_subscriptions["N1"])


@pytest.mark.parametrize("strategy", ["covering", "simple", "merging"])
@pytest.mark.parametrize("seed", [5, 23])
def test_stepwise_randomized_equivalence(strategy, seed):
    """After *every* table mutation the delta state matches from-scratch."""
    rng = random.Random(seed)
    broker, _ = _make_broker(strategy=strategy)
    locations = ["l{}".format(index) for index in range(10)]
    live = []
    for _ in range(250):
        roll = rng.random()
        if live and roll < 0.35:
            filter_, destination, subject = live.pop(rng.randrange(len(live)))
            broker.subscription_table.remove(filter_, destination, subject)
        elif live and roll < 0.45:
            # Bulk removal: kills several rows (possibly of the same
            # filter, in canonical order) before any refresh runs.
            _, _, subject = rng.choice(live)
            broker.subscription_table.remove_subject(subject)
            live = [item for item in live if item[2] != subject]
        else:
            if roll > 0.97:
                filter_ = MatchNone()
            else:
                span = rng.randint(1, 4)
                start = rng.randint(0, len(locations) - span)
                filter_ = _loc_filter(*locations[start : start + span])
            destination = rng.choice(["N1", "N2", "c1", "c2"])
            subject = "s{}".format(rng.randint(0, 12))
            broker.subscription_table.add(filter_, destination, subject)
            live.append((filter_, destination, subject))
        _assert_in_sync(broker)


# ---------------------------------------------------------------------------
# Network-level equivalence on a roaming location-dependent workload (the
# paper's Fig. 5 shape): per-hop window filters differ only in their
# ``ploc`` location constraint — the perfect-merge case the mobility
# algorithms lean on — and roaming is modelled as the resubscribe baseline
# does it (unsubscribe the old window, subscribe the shifted one).  Three
# ways of running the same schedule must agree:
#
# * ``delta`` — the production path, states maintained from row deltas;
# * ``rebuild`` — every state is invalidated after each settle, so the
#   table-scan rebuild is exercised as heavily as delta maintenance;
# * ``scratch`` — every refresh answered by the specification.
# ---------------------------------------------------------------------------

ROAM_LOCATIONS = ["loc-{:02d}".format(index) for index in range(12)]


def _window_filter(start, span=2):
    return {
        "service": "parking",
        "location": ("in", ROAM_LOCATIONS[start : start + span]),
    }


def _roaming_chain_churn(mode, seed, strategy="merging"):
    from repro.broker.network import PubSubNetwork
    from repro.metrics.counters import MessageCounter
    from repro.sim.rng import DeterministicRandom
    from repro.topology.builders import balanced_tree_topology

    def settle():
        network.settle()
        if mode == "rebuild":
            for broker in network.brokers.values():
                broker._invalidate_forwarding_states()

    topology = balanced_tree_topology(depth=2, fanout=2)
    network = PubSubNetwork(topology, strategy=strategy, latency=0.01)
    leaves = topology.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    settle()

    rng = DeterministicRandom(seed)
    clients = []
    positions = {}
    subscription_ids = {}
    for index in range(6):
        client = network.add_client("c{}".format(index), rng.choice(leaves[1:]))
        start = rng.randint(0, len(ROAM_LOCATIONS) - 3)
        positions[client.client_id] = start
        subscription_ids[client.client_id] = client.subscribe(_window_filter(start))
        clients.append(client)
    settle()

    for _ in range(36):
        action = rng.choice(["roam", "roam", "roam", "move", "publish"])
        client = rng.choice(clients)
        if action == "roam":
            # One hop of the ploc chain: the window slides by one location.
            start = (positions[client.client_id] + 1) % (len(ROAM_LOCATIONS) - 2)
            positions[client.client_id] = start
            new_id = client.subscribe(_window_filter(start))
            client.unsubscribe(subscription_ids[client.client_id])
            subscription_ids[client.client_id] = new_id
        elif action == "move":
            client.move_to(network.broker(rng.choice(leaves)))
        else:
            producer.publish(
                {
                    "service": "parking",
                    "location": rng.choice(ROAM_LOCATIONS),
                    "seq": rng.randint(0, 10_000),
                }
            )
        settle()

    counter = MessageCounter(network.trace)
    breakdown = counter.breakdown()
    forwarded = {
        name: {
            neighbour: sorted(map(repr, keys))
            for neighbour, keys in broker._forwarded_subscriptions.items()
        }
        for name, broker in network.brokers.items()
    }
    return {
        "admin": breakdown.admin,
        "notifications": breakdown.notifications,
        "tables": network.routing_table_sizes(),
        "forwarded": forwarded,
        "received": {c.client_id: c.received_identities() for c in clients},
    }


@pytest.mark.parametrize("seed", [7, 41])
def test_roaming_chain_three_mode_equivalence(seed):
    """Delta-maintained, rebuilt and from-scratch merging agree on roaming chains."""
    with scratch_forwarding():
        scratch = _roaming_chain_churn("scratch", seed)
    assert _roaming_chain_churn("delta", seed) == scratch
    assert _roaming_chain_churn("rebuild", seed) == scratch


# ---------------------------------------------------------------------------
# Index pruning: every covering question the selection maintenance asks goes
# through a two-way CoveringIndex over the input entries.  The brute-force
# scans it replaced live on here as the oracle.
# ---------------------------------------------------------------------------


def _scan_first_cover(state, filter_):
    """The unpruned reference: walk the whole selection in order."""
    covers = state.covers
    for _, selected_key in state.selection:
        if covers(state.entries[selected_key].filter, filter_):
            return selected_key
    return None


def _assert_state_is_from_scratch(broker):
    """Selection, assignment, members and desired pairs of every covering
    delta state equal ``minimal_cover_set`` + the oracle's ``first_cover``
    run from scratch over the state's inputs in canonical order."""
    _assert_in_sync(broker)  # also performs the rebuilds a refresh would
    for state in broker._forwarding_states.values():
        ordered = sorted(state.entries.values(), key=lambda entry: entry.pos)
        selection = minimal_cover_set([entry.filter for entry in ordered])
        assert [key for _, key in state.selection] == [f.key() for f in selection]
        assert state.selected == {f.key() for f in selection}
        assigned = {
            entry.key: first_cover(selection, entry.filter).key() for entry in ordered
        }
        assert state.assigned == assigned
        members = {}
        desired = {}
        for entry in ordered:
            cover_key = assigned[entry.key]
            members.setdefault(cover_key, set()).add(entry.key)
            for subject in entry.subjects:
                desired[(cover_key, subject)] = state.entries[cover_key].filter
        assert state.members == members
        assert state.desired == desired
        assert state._key_at == {entry.pos: entry.key for entry in ordered}


class TestIndexPruning:
    def test_index_tracks_input_membership(self):
        broker, _ = _make_broker(neighbours=("N1",))
        table = broker.subscription_table
        state = broker._forwarding_states["N1"]
        narrow = _loc_filter("a")
        broad = _loc_filter("a", "b")
        table.add(narrow, "c1", "s1")
        _assert_state_is_from_scratch(broker)
        # The broader filter evicts the narrow one from the selection, but
        # both stay indexed: a later resurrection must find the narrow one.
        table.add(broad, "c2", "s2")
        _assert_state_is_from_scratch(broker)
        assert state.selected == {broad.key()}
        assert set(state._key_at.values()) == {narrow.key(), broad.key()}
        table.remove(broad, "c2", "s2")
        _assert_state_is_from_scratch(broker)
        assert state.selected == {narrow.key()}
        table.remove(narrow, "c1", "s1")
        _assert_state_is_from_scratch(broker)
        assert state._key_at == {}
        assert state._index.candidate_positions(narrow) == []

    def test_resurrected_filter_steals_from_a_structurally_unrelated_cover(self):
        """The later cover constrains a different attribute than the
        resurrected filter, so no index over the *selection* relates the
        two; the stolen member has to be found among the inputs."""
        broker, _ = _make_broker(neighbours=("N1",))
        table = broker.subscription_table
        state = broker._forwarding_states["N1"]
        kept = Filter({"location": "a"})
        cover = Filter({"service": "parking"})
        wide = Filter({"location": ("in", ("a", "b"))})
        member = Filter({"service": "parking", "location": "a"})
        table.add(kept, "c1", "s1")
        table.add(cover, "c1", "s2")
        table.add(wide, "c1", "s3")  # evicts ``kept``
        table.add(member, "c1", "s4")  # first cover in input order: ``cover``
        _assert_state_is_from_scratch(broker)
        assert state.assigned[member.key()] == cover.key()
        table.remove(wide, "c1", "s3")
        _assert_state_is_from_scratch(broker)
        assert state.assigned[member.key()] == kept.key()

    @pytest.mark.parametrize("seed", [3, 19, 77])
    def test_randomized_first_cover_equals_unpruned_scan(self, seed):
        """Under churn that keeps the selection large (mostly disjoint
        filters), the pruned `_first_cover` agrees with the full scan for
        every live filter, and the maintained desired dict stays in sync
        with the from-scratch reference."""
        rng = random.Random(seed)
        broker, _ = _make_broker(neighbours=("N1",))
        table = broker.subscription_table
        state = broker._forwarding_states["N1"]
        locations = ["l{}".format(index) for index in range(8)]
        services = ["svc{}".format(index) for index in range(12)]
        live = []
        pruned_at_least_once = False
        for step in range(220):
            roll = rng.random()
            if live and roll < 0.4:
                filter_, destination, subject = live.pop(rng.randrange(len(live)))
                table.remove(filter_, destination, subject)
            else:
                # Mostly disjoint services keep the selection wide; the
                # occasional location-only filter exercises the fallback
                # attribute buckets of the index.
                if roll > 0.9:
                    span = rng.randint(1, 3)
                    start = rng.randint(0, len(locations) - span)
                    filter_ = Filter({"location": ("in", tuple(locations[start : start + span]))})
                else:
                    span = rng.randint(1, 3)
                    start = rng.randint(0, len(locations) - span)
                    filter_ = Filter(
                        {
                            "service": rng.choice(services),
                            "location": ("in", tuple(locations[start : start + span])),
                        }
                    )
                destination = rng.choice(["c1", "c2"])
                subject = "s{}".format(rng.randint(0, 20))
                table.add(filter_, destination, subject)
                live.append((filter_, destination, subject))
            _assert_state_is_from_scratch(broker)
            # The pruned walk and the unpruned scan agree on every live filter.
            for filter_, _, _ in live:
                assert state._first_cover(filter_) == _scan_first_cover(state, filter_)
            if len(state.entries) >= 4:
                probe = live[rng.randrange(len(live))][0]
                for candidates in (
                    state._index.candidate_positions(probe),
                    state._index.covered_candidate_positions(probe),
                ):
                    if candidates is not None and len(candidates) < len(state.entries):
                        pruned_at_least_once = True
        # The workload must actually exercise the pruning, not just agree
        # vacuously on tiny selections.
        assert pruned_at_least_once


# Eviction-heavy schedules: many narrow filters, then wide ones that evict
# them, then the wide ones leave again (resurrection, pairwise reduction of
# the orphans, stealing from later covers) — the three paths that ask the
# index "whom does this filter cover?".

_EVICTION_LOCATIONS = ["a", "b", "c", "d", "e", "f"]


def _eviction_filter(services, locations, cost):
    template = {}
    if services:
        template["service"] = services[0] if len(services) == 1 else ("in", tuple(services))
    if locations:
        template["location"] = ("in", tuple(locations))
    if cost is not None:
        template["cost"] = cost
    return Filter(template)


def _eviction_filter_draws(max_locations):
    return st.builds(
        _eviction_filter,
        st.lists(st.sampled_from(["parking", "fuel"]), max_size=2, unique=True),
        st.lists(st.sampled_from(_EVICTION_LOCATIONS), max_size=max_locations, unique=True),
        st.one_of(
            st.none(),
            st.integers(0, 3),
            st.tuples(st.just("between"), st.integers(0, 1), st.integers(2, 3)),
            st.tuples(st.just("<"), st.integers(1, 4)),
        ),
    )


def _eviction_filters(max_locations, min_size, max_size):
    return st.lists(_eviction_filter_draws(max_locations), min_size=min_size, max_size=max_size)


@given(
    narrow=_eviction_filters(max_locations=2, min_size=3, max_size=10),
    wide=_eviction_filters(max_locations=6, min_size=1, max_size=3),
    late=_eviction_filters(max_locations=2, min_size=0, max_size=4),
    removal_order=st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_eviction_heavy_schedules_match_from_scratch(narrow, wide, late, removal_order):
    broker, _ = _make_broker(neighbours=("N1",))
    table = broker.subscription_table
    rows = []

    def add(filter_):
        rows.append((filter_, "c{}".format(len(rows) % 3), "s{}".format(len(rows))))
        table.add(*rows[-1])
        _assert_state_is_from_scratch(broker)

    def remove(row):
        rows.remove(row)
        table.remove(*row)
        _assert_state_is_from_scratch(broker)

    for filter_ in narrow:
        add(filter_)
    for filter_ in wide:
        add(filter_)
    wide_rows = rows[len(narrow) :]
    # Narrow filters arriving under the wide covers are dropped on arrival
    # and only surface (or get stolen) once the covers leave.
    for filter_ in late:
        add(filter_)
    removal_order.shuffle(wide_rows)
    for row in wide_rows:
        remove(row)
    remaining = list(rows)
    removal_order.shuffle(remaining)
    for row in remaining:
        remove(row)
    assert broker._forwarding_states["N1"].entries == {}


# ---------------------------------------------------------------------------
# Gating: what enters a neighbour's input depends on the advertisements
# received from it and on which rows belong to location-dependent
# subscriptions.  Advertisements can flip wholesale, so the state is
# invalidated and rebuilt from a table scan; a location-dependent
# subscription only ever writes its own row, which is excluded row by row.
# The step-wise tests above build ungated brokers and see neither.
# ---------------------------------------------------------------------------

_GATED_NEIGHBOURS = ("N1", "N2", "N3")
#: Tokens, so that the Section 5 handlers can register them; plain rows
#: use the same ones, so a token can own ordinary rows next to its
#: location-dependent one.
_GATED_SUBJECTS = ["k/s0", "k/s1", "k/s2", "k/s3", "k/s4"]
#: Instantiates to the very filters ``_eviction_filter_draws`` produces, so
#: location-dependent and plain subscriptions meet in the same rows.
_GATED_TEMPLATE = LocationDependentFilter({"service": "parking", "location": MYLOC})
_GATED_GRAPH = MovementGraph.line(_EVICTION_LOCATIONS)


def _gated_filters():
    conjunctive = _eviction_filter_draws(max_locations=3)
    # What a location-dependent subscription stores at some hop: plain rows
    # that coincide with the row such a subscription writes (or wrote).
    stored = st.builds(
        lambda location, steps: _GATED_TEMPLATE.instantiate(
            _GATED_GRAPH.reachable_within(location, steps)
        ),
        st.sampled_from(_EVICTION_LOCATIONS),
        st.integers(0, 2),
    )
    return st.one_of(conjunctive, conjunctive, stored, st.just(MatchNone()), st.just(MatchAll()))


def _gated_operations():
    """Steps of the gating property.  ``add`` / ``remove`` / ``remove_subject``
    have the shapes ``tests/dispatch/test_plan_oracle.mutate`` applies; the
    ``advertise`` / ``unadvertise`` pair is the same on the other table."""
    neighbour = st.sampled_from(_GATED_NEIGHBOURS)
    destination = st.sampled_from(_GATED_NEIGHBOURS + ("c1", "c2"))
    subject = st.sampled_from(_GATED_SUBJECTS)
    position = st.integers(min_value=0, max_value=31)
    add = st.tuples(st.just("add"), _gated_filters(), destination, subject)
    remove = st.tuples(st.just("remove"), position, st.booleans())
    refresh = st.tuples(st.just("refresh"), st.sets(neighbour))
    # Weighted toward row churn between refreshes of a state that stays
    # valid; each gating change invalidates one state or all of them.
    # Few tokens, few places and one plan, so that registrations, moves and
    # twins of one token keep meeting in the same rows.
    token = st.sampled_from(_GATED_SUBJECTS[:2])
    location = st.sampled_from(_EVICTION_LOCATIONS[:3])
    move = st.tuples(st.just("move_logical"), token, location)
    return st.one_of(
        add,
        add,
        add,
        remove,
        remove,
        st.tuples(st.just("remove_subject"), subject),
        refresh,
        refresh,
        refresh,
        st.tuples(st.just("advertise"), _gated_filters(), neighbour, subject),
        st.tuples(st.just("unadvertise"), position),
        st.tuples(st.just("toggle_logical"), token, destination, location, st.integers(0, 2)),
        move,
        move,
        st.tuples(st.just("twin_logical"), token, location),
    )


def _logical_step(broker, operation):
    """Register, move or withdraw a location-dependent subscription the way
    a neighbour's (or a local client's) message does."""
    kind, token = operation[:2]
    client_id, _, subscription_id = token.partition("/")
    if kind == "twin_logical":
        # An ordinary registration of the row the subscription would be
        # stored in at that location: a later move there finds it taken.
        state = broker.logical.states.get(token)
        if state is not None:
            broker.subscription_table.add(
                state.filter_at(operation[2]), state.destination, token
            )
    elif kind == "move_logical":
        broker.logical.handle_update(
            LocationUpdate(client_id, subscription_id, None, operation[2]), None
        )
    elif token in broker.logical.states:
        broker.logical.handle_unsubscribe(
            LocationDependentUnsubscribe(client_id, subscription_id), None
        )
    else:
        _, _, destination, location, hop = operation
        broker.logical.handle_subscribe(
            LocationDependentSubscribe(
                client_id,
                subscription_id,
                _GATED_TEMPLATE,
                _GATED_GRAPH,
                UncertaintyPlan.static(3),
                location,
                hop_index=hop,
            ),
            destination,
        )


def test_logical_registration_takes_over_a_plain_row_of_its_token(table_scan_calls):
    """A token that already holds, as an ordinary subscription, the very row
    its location-dependent subscription stores: the ordinary registration
    is withdrawn from the forwarding states, and other rows of the token
    stay ordinary."""
    broker, _ = _make_broker(neighbours=_GATED_NEIGHBOURS)
    table = broker.subscription_table
    stored = _GATED_TEMPLATE.instantiate(_GATED_GRAPH.reachable_within("a", 1))
    table.add(stored, "N1", "k/s0")
    table.add(_loc_filter("e", "f"), "N1", "k/s0")
    broker._refresh_all_forwarding()
    settled = dict(table_scan_calls)
    _logical_step(broker, ("toggle_logical", "k/s0", "N1", "a", 1))
    assert broker.logical.states["k/s0"].owns(table.find_entry(stored, "N1"))
    for neighbour in ("N2", "N3"):
        broker.refresh_forwarding(neighbour)
        assert broker._forwarded_subscriptions[neighbour] == desired_forwarding(broker, neighbour)
        assert [subject for _, subject in broker._forwarded_subscriptions[neighbour]] == ["k/s0"]
    _logical_step(broker, ("toggle_logical", "k/s0"))
    assert table.find_entry(stored, "N1") is None
    _assert_in_sync(broker)
    assert table_scan_calls == settled


@given(
    strategy=st.sampled_from(["covering", "simple", "merging"]),
    advertisers=st.sets(st.sampled_from(_GATED_NEIGHBOURS)),
    schedule=st.lists(_gated_operations(), min_size=12, max_size=60),
    check_every_step=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_gated_states_match_from_scratch(strategy, advertisers, schedule, check_every_step):
    """Under advertisement churn, and with location-dependent subscriptions
    coming, moving and going through the Section 5 handlers, the states hold
    the specification's pairs, and every refresh leaves exactly them
    forwarded.  *advertisers* start out having advertised everything."""
    broker, _ = _make_broker(strategy, neighbours=_GATED_NEIGHBOURS, use_advertisements=True)
    for neighbour in sorted(advertisers):
        broker.advertisement_table.add(Filter({}), neighbour, "a0")
    for operation in schedule:
        kind = operation[0]
        if kind in ("add", "remove", "remove_subject"):
            mutate(broker.subscription_table, operation)
        elif kind == "advertise":
            mutate(broker.advertisement_table, ("add",) + operation[1:])
        elif kind == "unadvertise":
            mutate(broker.advertisement_table, ("remove", operation[1], True))
        elif kind.endswith("_logical"):
            _logical_step(broker, operation)
        else:
            # An empty draw refreshes every neighbour.
            for neighbour in sorted(operation[1]) or _GATED_NEIGHBOURS:
                broker.refresh_forwarding(neighbour)
                assert broker._forwarded_subscriptions[neighbour] == desired_forwarding(
                    broker, neighbour
                )
        if check_every_step:
            # Performs the rebuilds a refresh would; without it the states
            # stay invalid or dirty across steps, as they do in production.
            _assert_in_sync(broker)
    broker._refresh_all_forwarding()
    for neighbour in _GATED_NEIGHBOURS:
        assert broker._forwarded_subscriptions[neighbour] == desired_forwarding(broker, neighbour)
