"""The bitset matcher must agree with brute force.

``BitsetMatcher`` counts satisfied predicates in bit-sliced planes over
the predicate index's big-int masks (one per predicate, kept in place);
near-universal "hot" predicates are lifted out of counting arity and
applied as a single veto mask.  None of that may change a single match:
these properties pin bitset ≡ brute-force ``Filter.matches`` over
generated filter sets and churn — including ``MatchAll``, ``MatchNone``,
attribute absence, arity-1 and opaque-filter edge cases — plus the
in-place mask writes' equivalence with (and cheapness relative to) a
from-scratch rebuild, and a burst of one event on a live broker network
costing one match per broker.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.network import PubSubNetwork
from repro.dispatch.counting import BitsetMatcher
from repro.dispatch.plan import DispatchPlan
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.routing.table import RoutingTable
from repro.runtime.factory import make_runtime
from repro.topology.builders import line_topology

from tests.dispatch.test_predicate_index import (
    F,
    Filters,
    any_filters,
    notifications,
)


def make_bitset_matcher(*filters):
    """A ``BitsetMatcher`` over an index from birth, then populated;
    returns the :class:`Filters` feeding the index and the matcher."""
    population = Filters()
    matcher = BitsetMatcher(population.index)
    for filter_ in filters:
        population.add(filter_)
    return population, matcher


def keys_of(matched):
    return {filter_.key() for filter_ in matched}


def expected_keys(live, notification):
    return {
        f.key() for f in live if not isinstance(f, MatchNone) and f.matches(notification)
    }


# ---------------------------------------------------------------------------
# Hypothesis properties: bitset == brute force
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(filters=st.lists(any_filters(), max_size=8), notification=notifications())
def test_bitset_match_equals_brute_force(filters, notification):
    _, bitset = make_bitset_matcher(*filters)
    assert keys_of(bitset.match(notification)) == expected_keys(filters, notification)


@settings(max_examples=150, deadline=None)
@given(
    filters=st.lists(any_filters(), min_size=2, max_size=8),
    removals=st.lists(st.integers(min_value=0, max_value=7), max_size=6),
    notifications_=st.lists(notifications(), min_size=1, max_size=3),
)
def test_bitset_match_survives_churn(filters, removals, notifications_):
    """Removals drive the in-place mask writes, not a fresh compile.

    The matcher watches the index from birth and is matched *between*
    the structural changes, so every removal clears bits of masks a
    match already used and recompiles metadata already compiled.
    """
    population, bitset = make_bitset_matcher(*filters)
    bitset.match(notifications_[0])  # force the initial compile
    live = list(filters)
    for position in removals:
        if not live:
            break
        filter_ = live.pop(position % len(live))
        population.remove(filter_)
    for notification in notifications_:
        assert keys_of(bitset.match(notification)) == expected_keys(live, notification)


def test_randomized_churn_matches_brute_force():
    """Long interleaved add/remove/match run: bitset tracks brute force."""
    rng = random.Random(23)
    population, bitset = make_bitset_matcher()
    pool = [
        F(service="parking"),
        F(service="fuel"),
        F(cost=("<", 4)),
        F(cost=("between", 1, 5), service="parking"),
        F(location=("in", ["a", "b", "c"])),
        F(location=("in", ["a", "b"]), cost=(">=", 2)),
        F(note=("!=", "x")),
        MatchAll(),
    ] + [F(service="parking", floor=floor) for floor in range(12)]
    live = []
    for _ in range(400):
        if live and rng.random() < 0.45:
            filter_ = live.pop(rng.randrange(len(live)))
            population.remove(filter_)
        else:
            filter_ = rng.choice(pool)
            population.add(filter_)
            live.append(filter_)
        notification = {
            "service": rng.choice(["parking", "fuel", "bus"]),
            "cost": rng.randint(0, 6),
            "location": rng.choice(["a", "b", "c", "d"]),
            "floor": rng.randint(0, 13),
        }
        # Structurally identical filters are indexed once, so the
        # brute-force expectation is deduplicated by filter key.
        assert keys_of(bitset.match(notification)) == expected_keys(live, notification)


# ---------------------------------------------------------------------------
# Shared-predicate skipping
# ---------------------------------------------------------------------------


class TestSharedPredicateSkipping:
    def _hot_population(self):
        # 30 distinct filters all sharing the near-universal service
        # predicate (well past the hot thresholds), plus one filter
        # without it.
        filters = [F(service="parking", floor=floor) for floor in range(30)]
        filters.append(F(floor=3))
        return make_bitset_matcher(*filters), filters

    def test_satisfied_hot_predicate_is_skipped_not_counted(self):
        (_, matcher), filters = self._hot_population()
        matched = matcher.match({"service": "parking", "floor": 3})
        assert keys_of(matched) == {F(service="parking", floor=3).key(), F(floor=3).key()}
        assert matcher.stats.predicates_skipped_shared == 1
        assert matcher.stats.mask_ops > 0

    def test_unsatisfied_hot_predicate_vetoes_its_sharers(self):
        (_, matcher), filters = self._hot_population()
        # service != parking: all 30 sharers are vetoed by one mask
        # operation; the filter without the hot predicate still matches.
        matched = matcher.match({"service": "fuel", "floor": 3})
        assert keys_of(matched) == {F(floor=3).key()}
        matched = matcher.match({"floor": 3})
        assert keys_of(matched) == {F(floor=3).key()}

    def test_small_populations_form_no_hot_set(self):
        _, matcher = make_bitset_matcher(
            F(service="parking", floor=1), F(service="parking", floor=2)
        )
        assert keys_of(matcher.match({"service": "parking", "floor": 2})) == {
            F(service="parking", floor=2).key()
        }
        assert matcher.stats.predicates_skipped_shared == 0


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------


class TestEdgeCases:
    def test_match_all_and_arity1_filters(self):
        _, matcher = make_bitset_matcher(MatchAll(), F(service="parking"))
        assert len(matcher.match({})) == 1
        assert len(matcher.match({"service": "parking"})) == 2

    def test_match_none_is_rejected_by_the_index(self):
        # The plan never hands a MatchNone row's filter to its index.
        table = RoutingTable()
        plan = DispatchPlan(table)
        plan.rebuild()  # from here on the plan lives on row deltas
        table.add(MatchNone(), "N1", "s1")
        table.add(MatchAll(), "N2", "s2")
        assert keys_of(plan.matcher.match({"a": 1})) == {MatchAll().key()}
        assert len(plan.index) == 1

    def test_absent_attribute_fails_presence_constraints(self):
        _, matcher = make_bitset_matcher(F(service="parking", cost=("<", 3)))
        assert not matcher.match({"service": "parking"})
        assert matcher.match({"service": "parking", "cost": 2})

    def test_opaque_subclass_is_evaluated_whole(self):
        class Oddball(Filter):
            __slots__ = ()

            def matches(self, attributes):
                return attributes.get("cost", 0) % 2 == 1

        odd = Oddball({"service": "parking"})
        population, matcher = make_bitset_matcher(odd)
        assert population.index.opaque_fids
        assert keys_of(matcher.match({"cost": 3})) == {odd.key()}
        assert matcher.match({"cost": 2}) == []


# ---------------------------------------------------------------------------
# In-place mask writes vs full rebuild
# ---------------------------------------------------------------------------


class TestDirtyBucketRecompile:
    def test_incremental_recompile_rebuilds_fewer_masks(self):
        filters = [F(service="parking", floor=floor) for floor in range(20)]
        population, matcher = make_bitset_matcher(*filters)
        stats = population.index.stats  # the index's sink, shared by every matcher over it
        assert stats.bitset_rebuilds == 40  # two masks written per filter added
        matcher.match({"service": "parking", "floor": 0})
        stats.reset()
        population.add(F(service="parking", floor=99))
        matcher.match({"service": "parking", "floor": 99})
        # The add wrote exactly the masks of the predicates it touched
        # (the shared service predicate and the new floor one), in place;
        # matching wrote none.
        assert stats.bitset_rebuilds == 2
        # Building the same 21 filters from scratch writes all 42 again.
        fresh = Filters(*filters, F(service="parking", floor=99))
        assert fresh.index.stats.bitset_rebuilds == 42

    def test_incremental_recompile_equals_full_rebuild(self):
        rng = random.Random(7)
        pool = [F(service="parking", floor=floor) for floor in range(10)]
        pool += [F(cost=("<", bound)) for bound in range(1, 5)]
        pool.append(MatchAll())
        population, incremental = make_bitset_matcher()
        live = []
        for step in range(120):
            if live and rng.random() < 0.4:
                population.remove(live.pop(rng.randrange(len(live))))
            else:
                filter_ = rng.choice(pool)
                population.add(filter_)
                live.append(filter_)
            if step % 10 == 0:
                incremental.match({"service": "parking", "floor": rng.randint(0, 11)})
        # A matcher compiled from scratch over the final index state must
        # agree with the incrementally maintained one on every probe.
        fresh = BitsetMatcher(population.index)
        for floor in range(-1, 12):
            for cost in range(-1, 6):
                attributes = {"service": "parking", "floor": floor, "cost": cost}
                assert keys_of(incremental.match(attributes)) == keys_of(
                    fresh.match(attributes)
                )


# ---------------------------------------------------------------------------
# A burst of one event on a live network
# ---------------------------------------------------------------------------

#: Copies of the one event a burst publishes.
BURST = 4


def _burst_network(backend):
    """A three-broker line: a producer at one end, three subscribers at the other."""
    runtime = make_runtime(backend, latency=0.01)
    network = PubSubNetwork(line_topology(3), strategy="covering", runtime=runtime)
    brokers = sorted(network.brokers)
    producer = network.add_client("p", brokers[0])
    producer.advertise({"service": "s"})
    subscribers = []
    for position in range(3):
        client = network.add_client("c{}".format(position), brokers[-1])
        client.subscribe({"service": "s", "level": ("<", position + 1)})
        subscribers.append(client)
    network.settle()
    return network, producer, subscribers


def _mask_ops(network):
    return {name: broker.metrics.dispatch.mask_ops for name, broker in network.brokers.items()}


@pytest.mark.parametrize("backend", ["sim", "aio-memory"])
def test_a_burst_of_one_event_is_matched_once_per_broker(backend):
    """k copies published at one instant: the deliveries of k separate
    publishes, for the mask operations of one."""
    event = {"service": "s", "level": 1}
    network, producer, subscribers = _burst_network(backend)
    try:
        before = _mask_ops(network)
        producer.publish(event)
        network.settle()
        one_match = {name: ops - before[name] for name, ops in _mask_ops(network).items()}
        for _ in range(BURST - 1):
            producer.publish(event)
            network.settle()
        separate = {c.client_id: c.received_identities() for c in subscribers}
    finally:
        network.close()

    network, producer, subscribers = _burst_network(backend)
    try:
        before = _mask_ops(network)
        for _ in range(BURST):
            producer.publish(event)
        network.settle()
        burst = {name: ops - before[name] for name, ops in _mask_ops(network).items()}
        received = {c.client_id: c.received_identities() for c in subscribers}
    finally:
        network.close()

    assert received == separate
    assert sum(len(ids) for ids in received.values()) == 2 * BURST
    assert all(ops > 0 for ops in one_match.values())
    assert burst == one_match
