"""DispatchPlan must track the routing tables byte-for-byte under churn.

The plan maintains a counting index over the subscription table and
per-neighbour overlap indexes over the advertisement table through the
tables' row-level deltas; after *every* mutation its answers must equal
the brute-force specification of ``tests/oracles/matching.py`` —
including ``remove_subject`` / ``remove_destination`` bulk removals,
``clear`` resets, and lazy rebuilds.
"""

import random

from repro.dispatch.plan import AdvertisementOverlapIndex, DispatchPlan
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.routing.table import RoutingTable

from tests.oracles.matching import advertised_via, matching_rows, row_ids


def F(**constraints):
    return Filter(constraints)


def make_plan():
    subscriptions = RoutingTable()
    advertisements = RoutingTable()
    plan = DispatchPlan(subscriptions, advertisements)
    return plan, subscriptions, advertisements


def plan_rows(plan, attributes):
    return row_ids(plan.match(attributes))


def table_rows(table, attributes):
    return row_ids(matching_rows(table, attributes))


class TestSubscriptionSide:
    def test_rows_added_before_first_use_are_seen(self):
        plan, table, _ = make_plan()
        table.add(F(service="parking"), "N1", "s1")
        assert plan_rows(plan, {"service": "parking"}) == table_rows(
            table, {"service": "parking"}
        )

    def test_incremental_maintenance_without_rescans(self):
        plan, table, _ = make_plan()
        table.add(F(service="parking"), "N1", "s1")
        assert plan.match({"service": "parking"})  # builds lazily
        calls = []
        original = table.entries
        table.entries = lambda: calls.append(1) or original()
        table.add(F(service="fuel"), "N2", "s2")
        table.add(F(service="parking"), "N2", "s3")
        table.remove(F(service="parking"), "N1", "s1")
        assert plan_rows(plan, {"service": "parking"}) == [("N2", 3)]
        assert plan_rows(plan, {"service": "fuel"}) == [("N2", 2)]
        assert calls == []

    def test_match_none_rows_are_ignored(self):
        plan, table, _ = make_plan()
        table.add(MatchNone(), "N1", "s1")
        table.add(F(service="parking"), "N1", "s2")
        assert plan_rows(plan, {"service": "parking"}) == [("N1", 2)]
        table.remove(MatchNone(), "N1", "s1")
        assert plan_rows(plan, {"service": "parking"}) == [("N1", 2)]

    def test_match_all_rows_match_everything(self):
        plan, table, _ = make_plan()
        table.add(MatchAll(), "N1", "everything")
        assert plan_rows(plan, {"anything": 1}) == [("N1", 1)]

    def test_subject_only_churn_keeps_shared_row(self):
        plan, table, _ = make_plan()
        table.add(F(service="parking"), "N1", "s1")
        assert plan.match({"service": "parking"})
        table.add(F(service="parking"), "N1", "s2")
        table.remove(F(service="parking"), "N1", "s1")
        assert plan_rows(plan, {"service": "parking"}) == [("N1", 1)]

    def test_clear_invalidates_and_rebuilds(self):
        plan, table, _ = make_plan()
        table.add(F(service="parking"), "N1", "s1")
        assert plan.match({"service": "parking"})
        table.clear()
        assert not plan.valid
        table.add(F(service="fuel"), "N2", "s2")
        assert plan_rows(plan, {"service": "fuel"}) == table_rows(table, {"service": "fuel"})
        assert plan_rows(plan, {"service": "parking"}) == []

    def test_randomized_churn_equals_table_oracle(self):
        rng = random.Random(31)
        plan, table, _ = make_plan()
        locations = ["l{}".format(i) for i in range(8)]
        live = []
        for step in range(400):
            roll = rng.random()
            if live and roll < 0.3:
                filter_, destination, subject = live.pop(rng.randrange(len(live)))
                table.remove(filter_, destination, subject)
            elif live and roll < 0.4:
                _, _, subject = rng.choice(live)
                table.remove_subject(subject)
                live = [item for item in live if item[2] != subject]
            elif live and roll < 0.45:
                destination = rng.choice(live)[1]
                table.remove_destination(destination)
                live = [item for item in live if item[1] != destination]
            else:
                if roll > 0.98:
                    filter_ = MatchNone()
                elif roll > 0.94:
                    filter_ = Filter({"cost": ("<", rng.randint(0, 5))})
                else:
                    span = rng.randint(1, 3)
                    start = rng.randint(0, len(locations) - span)
                    filter_ = Filter(
                        {"service": "parking", "location": ("in", locations[start : start + span])}
                    )
                destination = rng.choice(["N1", "N2", "c1"])
                subject = "s{}".format(rng.randint(0, 9))
                table.add(filter_, destination, subject)
                live.append((filter_, destination, subject))
            if rng.random() < 0.1:
                plan.invalidate()  # exercise the rebuild path mid-churn
            notification = {
                "service": rng.choice(["parking", "fuel"]),
                "location": rng.choice(locations),
                "cost": rng.randint(0, 5),
            }
            assert plan_rows(plan, notification) == table_rows(table, notification)


class TestAdvertisementSide:
    def test_gate_tracks_adverts_incrementally(self):
        plan, _, adverts = make_plan()
        query = F(service="parking", location="a")
        assert plan.advertised_via("N1", query) is False
        adverts.add(F(service="parking"), "N1", "a1")
        assert plan.advertised_via("N1", query) is True
        assert plan.advertised_via("N2", query) is False
        adverts.remove(F(service="parking"), "N1", "a1")
        assert plan.advertised_via("N1", query) is False

    def test_disjoint_equalities_are_pruned(self):
        plan, _, adverts = make_plan()
        adverts.add(F(service="fuel"), "N1", "a1")
        assert plan.advertised_via("N1", F(service="parking")) is False
        adverts.add(F(service="parking", location=("in", ["a", "b"])), "N1", "a2")
        assert plan.advertised_via("N1", F(service="parking", location="a")) is True
        assert plan.advertised_via("N1", F(service="parking", location="c")) is False

    def test_unconstrained_advert_overlaps_everything(self):
        plan, _, adverts = make_plan()
        adverts.add(MatchAll(), "N1", "a1")
        assert plan.advertised_via("N1", F(service="parking")) is True
        assert plan.advertised_via("N1", MatchNone()) is False

    def test_randomized_gate_equals_scan(self):
        rng = random.Random(77)
        plan, _, adverts = make_plan()
        services = ["parking", "fuel", "bus"]
        locations = ["a", "b", "c", "d"]
        pool = []
        for _ in range(40):
            template = {}
            if rng.random() < 0.8:
                template["service"] = rng.choice(services)
            if rng.random() < 0.6:
                count = rng.randint(1, 3)
                template["location"] = ("in", rng.sample(locations, count))
            if rng.random() < 0.3:
                template["cost"] = ("<", rng.randint(1, 5))
            pool.append(Filter(template))
        live = []
        for step in range(300):
            if live and rng.random() < 0.4:
                filter_, destination, subject = live.pop(rng.randrange(len(live)))
                adverts.remove(filter_, destination, subject)
            else:
                filter_ = rng.choice(pool + [MatchNone(), MatchAll()])
                destination = rng.choice(["N1", "N2"])
                subject = "a{}".format(step)
                adverts.add(filter_, destination, subject)
                live.append((filter_, destination, subject))
            query = rng.choice(pool)
            for destination in ("N1", "N2"):
                assert plan.advertised_via(destination, query) == advertised_via(
                    adverts, destination, query
                ), (step, destination, query)


class TestOverlapIndexDirect:
    def test_multi_attribute_disjointness(self):
        index = AdvertisementOverlapIndex()
        index.add(F(service="parking", location="a"))
        # Shares the service value but not the location value: disjoint.
        assert index.any_overlap(F(service="parking", location="b")) is False
        # Constrains only an attribute the ad does not: overlaps.
        assert index.any_overlap(F(floor=3)) is True

    def test_non_finite_constraints_never_prove_disjointness(self):
        index = AdvertisementOverlapIndex()
        index.add(F(cost=("<", 3)))
        assert index.any_overlap(F(cost=5)) is True  # mirrors the hint's blind spot
