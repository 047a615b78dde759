"""The bitset matcher must agree with brute force.

``BitsetMatcher`` compiles the predicate index's predicate→filter sets
into big-int masks and counts satisfied predicates in bit-sliced planes;
near-universal "hot" predicates are lifted out of counting arity and
applied as a single veto mask.  None of that may change a single match:
these properties pin bitset ≡ brute-force ``Filter.matches`` over
generated filter sets and churn — including ``MatchAll``, ``MatchNone``,
attribute absence, arity-1 and opaque-filter edge cases — plus the
dirty-bucket recompile's equivalence with (and cheapness relative to) a
from-scratch rebuild, and the cross-notification batching entry point on
a live broker network.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.broker.network import PubSubNetwork
from repro.dispatch.counting import BitsetMatcher
from repro.dispatch.predicate_index import PredicateIndex
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.metrics.counters import data_plane_breakdown
from repro.topology.builders import line_topology

from tests.dispatch.test_predicate_index import (
    F,
    any_filters,
    notifications,
)
from tests.oracles.matching import oracle_dispatch


def make_bitset_matcher(*filters):
    """An index observed by a ``BitsetMatcher`` from birth, then populated."""
    index = PredicateIndex()
    matcher = BitsetMatcher(index)
    for filter_ in filters:
        index.add(filter_)
    return index, matcher


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
    """Removals drive the observer/dirty-bucket path, not a fresh compile.

    The matcher observes the index from birth and is matched *between*
    the structural changes, so every removal exercises an incremental
    recompile of already-compiled masks rather than a first build.
    """
    index, bitset = make_bitset_matcher(*filters)
    bitset.match(notifications_[0])  # force the initial full compile
    live = list(filters)
    for position in removals:
        if not live:
            break
        filter_ = live.pop(position % len(live))
        index.remove(filter_)
    for notification in notifications_:
        assert keys_of(bitset.match(notification)) == expected_keys(live, notification)


def test_randomized_churn_matches_brute_force():
    """Long interleaved add/remove/match run: bitset tracks brute force."""
    rng = random.Random(23)
    index = PredicateIndex()
    bitset = BitsetMatcher(index)
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
            index.remove(filter_)
        else:
            filter_ = rng.choice(pool)
            index.add(filter_)
            live.append(filter_)
        notification = {
            "service": rng.choice(["parking", "fuel", "bus"]),
            "cost": rng.randint(0, 6),
            "location": rng.choice(["a", "b", "c", "d"]),
            "floor": rng.randint(0, 13),
        }
        # The index refcounts structurally identical filters, so the
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
        (index, matcher), filters = self._hot_population()
        matched = matcher.match({"service": "parking", "floor": 3})
        assert keys_of(matched) == {F(service="parking", floor=3).key(), F(floor=3).key()}
        assert matcher.stats.predicates_skipped_shared == 1
        assert matcher.stats.mask_ops > 0

    def test_unsatisfied_hot_predicate_vetoes_its_sharers(self):
        (index, matcher), filters = self._hot_population()
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
        index = PredicateIndex()
        matcher = BitsetMatcher(index)
        assert index.add(MatchNone()) is False
        assert matcher.match({"a": 1}) == []

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
        index, matcher = make_bitset_matcher(odd)
        assert index.opaque_fids
        assert keys_of(matcher.match({"cost": 3})) == {odd.key()}
        assert matcher.match({"cost": 2}) == []


# ---------------------------------------------------------------------------
# Dirty-bucket recompile vs full rebuild
# ---------------------------------------------------------------------------


class TestDirtyBucketRecompile:
    def test_incremental_recompile_rebuilds_fewer_masks(self):
        filters = [F(service="parking", floor=floor) for floor in range(20)]
        index, matcher = make_bitset_matcher(*filters)
        matcher.match({"service": "parking", "floor": 0})  # initial full compile
        stats = index.stats  # the index's sink, shared by every matcher over it
        stats.reset()
        index.add(F(service="parking", floor=99))
        matcher.match({"service": "parking", "floor": 99})
        incremental = stats.bitset_rebuilds
        stats.reset()
        fresh = BitsetMatcher(index)
        fresh.match({"service": "parking", "floor": 99})
        full = stats.bitset_rebuilds
        # The add dirtied exactly the touched predicates (the shared
        # service predicate and the new floor bucket), not all 21 masks.
        assert incremental == 2
        assert incremental < full

    def test_incremental_recompile_equals_full_rebuild(self):
        rng = random.Random(7)
        pool = [F(service="parking", floor=floor) for floor in range(10)]
        pool += [F(cost=("<", bound)) for bound in range(1, 5)]
        pool.append(MatchAll())
        index, incremental = make_bitset_matcher()
        live = []
        for step in range(120):
            if live and rng.random() < 0.4:
                index.remove(live.pop(rng.randrange(len(live))))
            else:
                filter_ = rng.choice(pool)
                index.add(filter_)
                live.append(filter_)
            if step % 10 == 0:
                incremental.match({"service": "parking", "floor": rng.randint(0, 11)})
        # A matcher compiled from scratch over the final index state must
        # agree with the incrementally maintained one on every probe.
        fresh = BitsetMatcher(index)
        for floor in range(-1, 12):
            for cost in range(-1, 6):
                attributes = {"service": "parking", "floor": floor, "cost": cost}
                assert keys_of(incremental.match(attributes)) == keys_of(
                    fresh.match(attributes)
                )


# ---------------------------------------------------------------------------
# Cross-notification batching on a live network
# ---------------------------------------------------------------------------


class TestCrossNotificationBatching:
    def _run(self):
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        brokers = sorted(network.brokers)
        producer = network.add_client("p", brokers[0])
        producer.advertise({"service": "s"})
        subscribers = []
        for position in range(3):
            client = network.add_client("c{}".format(position), brokers[1])
            client.subscribe({"service": "s", "level": ("<", position + 1)})
            subscribers.append(client)
        network.settle()

        before = data_plane_breakdown(network.brokers.values())
        for burst in range(5):
            # Identical attributes published at one instant share delivery
            # times on the broker-broker link, so one flush hands the
            # whole run to Broker.receive_batch.
            for _ in range(4):
                producer.publish({"service": "s", "level": burst % 3})
            network.settle()
        after = data_plane_breakdown(network.brokers.values())
        stats = {key: after[key] - before[key] for key in after}
        received = {c.client_id: c.received_identities() for c in subscribers}
        network.close()
        return received, stats

    def test_batched_runs_amortise_matching_without_changing_deliveries(self):
        received, stats = self._run()
        with oracle_dispatch():
            oracle_received, _ = self._run()
        assert received == oracle_received
        assert sum(len(ids) for ids in received.values()) > 0
        # Every burst's repeated signature was amortised at least once,
        # and the reuse shows up as fewer index probes than one per
        # notification per broker (5 bursts of 4, two brokers).
        assert stats["dispatch_batched_groups"] >= 5
        assert stats["dispatch_matches"] < 5 * 4 * 2
