"""Unit tests for the routing table.

The table stores rows and publishes their changes; matching is the job of
the ``DispatchPlan`` listening to it.  The cases that ask "which rows
match" therefore attach a plan the way a broker does and hold its answer
against the brute force of ``tests/oracles/matching.py``.
"""

from repro.dispatch.plan import DispatchPlan
from repro.filters.filter import Filter
from repro.routing.table import RoutingTable

from tests.oracles.matching import checked_match


def F(**kwargs):
    return Filter(kwargs)


def matched_destinations(table, plan, attributes):
    return {row.destination for row in checked_match(plan, table, attributes)}


class TestAddRemove:
    def test_add_and_match_destinations(self):
        table = RoutingTable()
        plan = DispatchPlan(table, RoutingTable())
        assert table.add(F(a=1), "link-1", "client/sub")
        assert matched_destinations(table, plan, {"a": 1}) == {"link-1"}
        assert matched_destinations(table, plan, {"a": 2}) == set()

    def test_same_row_multiple_subjects(self):
        table = RoutingTable()
        assert table.add(F(a=1), "link-1", "c1/s1")
        assert not table.add(F(a=1), "link-1", "c2/s1")
        assert len(table) == 1
        entry = table.find_entry(F(a=1), "link-1")
        assert entry.subjects == {"c1/s1", "c2/s1"}

    def test_remove_subject_keeps_row_until_empty(self):
        table = RoutingTable()
        table.add(F(a=1), "link-1", "c1/s1")
        table.add(F(a=1), "link-1", "c2/s1")
        assert not table.remove(F(a=1), "link-1", "c1/s1")
        assert len(table) == 1
        assert table.remove(F(a=1), "link-1", "c2/s1")
        assert len(table) == 0

    def test_remove_without_subject_drops_row(self):
        table = RoutingTable()
        table.add(F(a=1), "link-1", "c1/s1")
        table.add(F(a=1), "link-1", "c2/s1")
        assert table.remove(F(a=1), "link-1")
        assert len(table) == 0

    def test_remove_missing_row(self):
        table = RoutingTable()
        assert not table.remove(F(a=1), "link-1", "c1/s1")

    def test_remove_subject_across_rows(self):
        table = RoutingTable()
        plan = DispatchPlan(table, RoutingTable())
        table.add(F(a=1), "link-1", "c1/s1")
        table.add(F(b=2), "link-2", "c1/s1")
        table.add(F(b=2), "link-2", "c2/s2")
        removed = table.remove_subject("c1/s1")
        assert len(removed) == 1
        assert len(table) == 1
        assert matched_destinations(table, plan, {"b": 2}) == {"link-2"}

    def test_remove_destination(self):
        table = RoutingTable()
        table.add(F(a=1), "link-1", "s")
        table.add(F(b=2), "link-1", "s")
        table.add(F(c=3), "link-2", "s")
        removed = table.remove_destination("link-1")
        assert len(removed) == 2
        assert [row.destination for row in table.entries()] == ["link-2"]

    def test_clear(self):
        table = RoutingTable()
        plan = DispatchPlan(table, RoutingTable())
        table.add(F(a=1), "link-1", "s")
        assert matched_destinations(table, plan, {"a": 1}) == {"link-1"}
        table.clear()
        assert len(table) == 0
        assert matched_destinations(table, plan, {"a": 1}) == set()


class TestQueries:
    def test_matching_entries(self):
        table = RoutingTable()
        plan = DispatchPlan(table, RoutingTable())
        table.add(F(a=1), "link-1", "s1")
        table.add(F(a=1), "link-2", "s2")
        table.add(F(b=2), "link-1", "s3")
        entries = checked_match(plan, table, {"a": 1})
        assert {entry.destination for entry in entries} == {"link-1", "link-2"}
        assert all(entry is table.find_entry(F(a=1), entry.destination) for entry in entries)

    def test_entries_for_subject_and_destination(self):
        table = RoutingTable()
        table.add(F(a=1), "link-1", "c/s")
        table.add(F(b=2), "link-2", "c/s")
        assert len(table.entries_for_subject("c/s")) == 2
        assert len([row for row in table.entries() if row.destination == "link-1"]) == 1

    def test_find_entry_and_iteration(self):
        table = RoutingTable()
        table.add(F(a=1), "link-1", "s1")
        assert table.find_entry(F(a=1), "link-1") is not None
        assert table.find_entry(F(a=1), "link-2") is None
        assert len(list(iter(table))) == 1


def test_routing_table_change_listener():
    table = RoutingTable()
    events = []
    table.add_listener(events.append)
    filter_ = Filter({"a": 1})
    table.add(filter_, "west", "s1")
    assert events == ["west"]
    # Subject-only growth on an existing row is an observable change.
    table.add(filter_, "west", "s2")
    assert len(events) == 2
    # Re-adding an existing subject is not.
    table.add(filter_, "west", "s2")
    assert len(events) == 2
    # Subject removal that keeps the row alive still notifies.
    table.remove(filter_, "west", "s1")
    assert len(events) == 3
    # Removing an absent subject does not.
    table.remove(filter_, "west", "missing")
    assert len(events) == 3
    table.remove(filter_, "west", "s2")
    assert len(events) == 4
    assert all(row.destination != "west" for row in table.entries())
    # clear() publishes a whole-table change as destination None.
    table.add(filter_, "east", "s1")
    table.clear()
    assert events[-1] is None
