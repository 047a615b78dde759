"""DispatchPlan must track the subscription table byte-for-byte under churn.

The plan maintains a counting index over the subscription table through
the table's row-level deltas; after *every* mutation its answers must
equal the brute-force specification of ``tests/oracles/matching.py`` —
including ``remove_subject`` / ``remove_destination`` bulk removals and
rebuilds.  The advertisement gate's cases live in
``tests/broker/test_advert_gate.py``.
"""

import random

from repro.dispatch.plan import DispatchPlan
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.routing.table import RoutingTable

from tests.oracles.matching import matching_rows, row_ids


def F(**constraints):
    return Filter(constraints)


def make_plan():
    subscriptions = RoutingTable()
    return DispatchPlan(subscriptions), subscriptions


def plan_rows(plan, attributes):
    return row_ids(plan.match(attributes))


def table_rows(table, attributes):
    return row_ids(matching_rows(table, attributes))


class TestSubscriptionSide:
    def test_rows_added_before_first_use_are_seen(self):
        plan, table = make_plan()
        table.add(F(service="parking"), "N1", "s1")
        assert plan_rows(plan, {"service": "parking"}) == table_rows(
            table, {"service": "parking"}
        )

    def test_incremental_maintenance_without_rescans(self):
        plan, table = make_plan()
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
        plan, table = make_plan()
        table.add(MatchNone(), "N1", "s1")
        table.add(F(service="parking"), "N1", "s2")
        assert plan_rows(plan, {"service": "parking"}) == [("N1", 2)]
        table.remove(MatchNone(), "N1", "s1")
        assert plan_rows(plan, {"service": "parking"}) == [("N1", 2)]

    def test_match_all_rows_match_everything(self):
        plan, table = make_plan()
        table.add(MatchAll(), "N1", "everything")
        assert plan_rows(plan, {"anything": 1}) == [("N1", 1)]

    def test_subject_only_churn_keeps_shared_row(self):
        plan, table = make_plan()
        table.add(F(service="parking"), "N1", "s1")
        assert plan.match({"service": "parking"})
        table.add(F(service="parking"), "N1", "s2")
        table.remove(F(service="parking"), "N1", "s1")
        assert plan_rows(plan, {"service": "parking"}) == [("N1", 1)]

    def test_randomized_churn_equals_table_oracle(self):
        rng = random.Random(31)
        plan, table = make_plan()
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
                plan.rebuild()  # exercise the rebuild path mid-churn
            notification = {
                "service": rng.choice(["parking", "fuel"]),
                "location": rng.choice(locations),
                "cost": rng.randint(0, 5),
            }
            assert plan_rows(plan, notification) == table_rows(table, notification)
