"""The matcher's contract, case by case, on the production path.

The cases speak of ``(filter, payload)`` pairs: a payload is the
destination of a routing row.  They drive the routing tables' one
matcher — a ``RoutingTable`` with its ``DispatchPlan`` attached, as a
broker wires them — and every answer is also held against the brute
force of ``tests/oracles/matching.py``.  The bookkeeping cases look at
the structures behind it: the plan's ``PredicateIndex`` buckets and the
anchor policy of ``repro.filters.covering_cache.CoveringIndex``.
"""

from repro.dispatch.plan import DispatchPlan
from repro.filters.covering_cache import CoveringIndex
from repro.filters.filter import Filter, MatchNone
from repro.routing.table import RoutingTable

from tests.oracles.matching import checked_match


def F(**kwargs):
    return Filter(kwargs)


class Matcher:
    """A routing table and its plan, spoken to in (filter, payload) terms."""

    def __init__(self):
        self.table = RoutingTable()
        self.plan = DispatchPlan(self.table, RoutingTable())
        self.plan.rebuild()  # from here on the plan lives on row deltas
        self.index = self.plan.index

    def add(self, filter_, payload):
        return self.table.add(filter_, str(payload), "subject")

    def remove(self, filter_, payload):
        return self.table.remove(filter_, str(payload), "subject")

    def remove_filter(self, filter_):
        rows = [row for row in self.table.entries() if row.filter == filter_]
        for row in rows:
            self.table.remove(row.filter, row.destination)
        return bool(rows)

    def match(self, attributes):
        return checked_match(self.plan, self.table, attributes)

    def matching_payloads(self, attributes):
        return {row.destination for row in self.match(attributes)}


class TestAddRemove:
    def test_add_and_match(self):
        matcher = Matcher()
        matcher.add(F(service="parking"), "link-1")
        assert matcher.matching_payloads({"service": "parking"}) == {"link-1"}
        assert matcher.matching_payloads({"service": "fuel"}) == set()

    def test_multiple_payloads_per_filter(self):
        matcher = Matcher()
        matcher.add(F(a=1), "x")
        matcher.add(F(a=1), "y")
        # Two rows, one indexed filter.
        assert len(matcher.table) == 2
        assert len(matcher.index) == 1
        assert matcher.matching_payloads({"a": 1}) == {"x", "y"}

    def test_remove_payload_keeps_entry(self):
        matcher = Matcher()
        matcher.add(F(a=1), "x")
        matcher.add(F(a=1), "y")
        assert matcher.remove(F(a=1), "x")
        assert matcher.matching_payloads({"a": 1}) == {"y"}
        assert len(matcher.index) == 1

    def test_remove_last_payload_drops_entry(self):
        matcher = Matcher()
        matcher.add(F(a=1), "x")
        assert matcher.remove(F(a=1), "x")
        assert len(matcher.index) == 0
        assert not matcher.remove(F(a=1), "x")

    def test_remove_filter_entirely(self):
        matcher = Matcher()
        matcher.add(F(a=1), "x")
        matcher.add(F(a=1), "y")
        assert matcher.remove_filter(F(a=1))
        assert len(matcher.index) == 0
        assert matcher.matching_payloads({"a": 1}) == set()

    def test_match_none_is_never_indexed(self):
        matcher = Matcher()
        assert matcher.add(MatchNone(), "x")  # the row exists ...
        assert len(matcher.index) == 0  # ... but nothing can ever match it
        assert matcher.matching_payloads({"a": 1}) == set()
        assert matcher.remove(MatchNone(), "x")

    def test_clear(self):
        matcher = Matcher()
        matcher.add(F(a=1), "x")
        matcher.add(F(b=("<", 3)), "y")
        matcher.table.clear()
        assert not matcher.plan.valid
        assert matcher.matching_payloads({"a": 1}) == set()
        assert len(matcher.index) == 0


class TestIndexedAndScanned:
    def test_non_equality_filters_still_match(self):
        matcher = Matcher()
        matcher.add(F(cost=("<", 3)), "cheap")
        matcher.add(F(cost=(">=", 3)), "pricey")
        assert matcher.matching_payloads({"cost": 2}) == {"cheap"}
        assert matcher.matching_payloads({"cost": 5}) == {"pricey"}

    def test_mixed_index_and_scan(self):
        matcher = Matcher()
        matcher.add(F(service="parking", cost=("<", 3)), "both")
        matcher.add(F(cost=("<", 3)), "range-only")
        payloads = matcher.matching_payloads({"service": "parking", "cost": 1})
        assert payloads == {"both", "range-only"}
        # The shared ``cost < 3`` predicate is stored once.
        assert matcher.index.predicate_count == 2

    def test_many_disjoint_equalities(self):
        matcher = Matcher()
        for index in range(200):
            matcher.add(F(symbol="SYM{}".format(index)), index)
        assert matcher.matching_payloads({"symbol": "SYM42"}) == {"42"}
        assert matcher.matching_payloads({"symbol": "NOPE"}) == set()

    def test_match_returns_filters_and_payloads(self):
        matcher = Matcher()
        matcher.add(F(a=1), "x")
        (row,) = matcher.match({"a": 1})
        assert row.filter == F(a=1)
        assert row.destination == "x"
        # The table's own row, not a copy.
        assert row is matcher.table.find_entry(F(a=1), "x")

    def test_contains_and_iteration(self):
        matcher = Matcher()
        matcher.add(F(a=1), "x")
        assert matcher.table.find_entry(F(a=1), "x") is not None
        assert matcher.table.find_entry(F(a=2), "x") is None
        assert [row.destination for row in matcher.table] == ["x"]

    def test_payloads_for(self):
        matcher = Matcher()
        matcher.add(F(a=1), "x")
        matcher.add(F(a=1), "y")
        matcher.add(F(a=2), "z")
        # Per indexed filter, the plan keeps the rows it hands out.
        fid = matcher.index.fid_of(F(a=1))
        assert [row.destination for row in matcher.plan.fid_rows[fid]] == ["x", "y"]
        assert matcher.index.fid_of(F(a=3)) is None

    def test_agreement_with_bruteforce(self):
        """The indexed matcher returns exactly the brute-force result."""
        matcher = Matcher()
        filters = [
            F(service="parking"),
            F(service="parking", cost=("<", 3)),
            F(cost=(">", 5)),
            F(location=("in", ["a", "b"])),
            F(location="c", service="fuel"),
        ]
        for index, filter_ in enumerate(filters):
            matcher.add(filter_, index)
        notifications = [
            {"service": "parking", "cost": 1, "location": "a"},
            {"service": "fuel", "cost": 9, "location": "c"},
            {"service": "towing"},
            {"location": "b"},
            {"cost": 6},
        ]
        for notification in notifications:
            expected = {str(i) for i, f in enumerate(filters) if f.matches(notification)}
            assert matcher.matching_payloads(notification) == expected


class TestRemovalAndIndexPositions:
    """Removal bookkeeping and index-position edge cases.

    The predicate index recomputes which bucket, comparison array or scan
    list a predicate lives in when it drops it; these cases pin down the
    cleanup paths and the anchor policy the covering index still shares.
    """

    def test_removal_cleans_equality_bucket(self):
        matcher = Matcher()
        matcher.add(F(service="parking"), "x")
        assert matcher.index._eq
        assert matcher.remove(F(service="parking"), "x")
        assert matcher.index._eq == {}
        assert matcher.index.predicate_count == 0
        assert matcher.index.fid_of(F(service="parking")) is None
        assert not any(matcher.plan.fid_rows)

    def test_removal_cleans_scan_list(self):
        matcher = Matcher()
        matcher.add(F(cost=("<", 3), note=("!=", "x")), "x")
        assert matcher.index._cmp and matcher.index._residual
        assert matcher.remove(F(cost=("<", 3), note=("!=", "x")), "x")
        assert matcher.index._cmp == {}
        assert matcher.index._residual == {}

    def test_index_position_tie_breaks_lexicographically(self):
        # With every bucket equally (un)loaded the covering index's anchor
        # policy prefers a finite constraint, then the lexicographically
        # smallest attribute.
        index = CoveringIndex()
        index.add(0, F(zebra="z", alpha="a", cost=("<", 3)))
        assert index._filed[0][0] == "alpha"
        assert index._by_value == {("alpha", ("string", "a")): [0]}

    def test_shared_equality_stops_attracting_anchors(self):
        # A value bucket every filter's query looks at prunes nothing; once
        # the shared equality's covered-side bucket fills up, later filters
        # must anchor on their more selective constraint instead.
        index = CoveringIndex()

        def anchor(position, filter_):
            index.add(position, filter_)
            return index._filed[position][0]

        # "area" sorts before "zone", so the first filter anchors on the
        # shared equality; every later one finds that bucket looked at by
        # the filters before it and anchors on its distinct zone value.
        assert anchor(0, F(area="center", zone="a")) == "area"
        for position, zone in enumerate("bcd", 1):
            assert anchor(position, F(area="center", zone=zone)) == "zone"

    def test_in_set_anchor_registers_one_bucket_per_value(self):
        matcher = Matcher()
        matcher.add(F(service="parking"), "other")
        filter_ = F(service="parking", location=("in", ["a", "b"]))
        matcher.add(filter_, "x")
        for value in ("a", "b"):
            assert matcher.index._eq[("location", ("string", value))]
        assert matcher.matching_payloads({"service": "parking", "location": "a"}) == {
            "other",
            "x",
        }
        assert matcher.matching_payloads({"service": "parking", "location": "z"}) == {"other"}
        assert matcher.remove(filter_, "x")
        assert ("location", ("string", "a")) not in matcher.index._eq
        assert ("location", ("string", "b")) not in matcher.index._eq

    def test_shared_bucket_survives_partial_removal(self):
        matcher = Matcher()
        matcher.add(F(service="parking"), "x")
        matcher.add(F(service="parking", cost=("<", 3)), "y")
        assert matcher.remove_filter(F(service="parking"))
        # The (service, parking) predicate must still serve the second filter.
        assert matcher.matching_payloads({"service": "parking", "cost": 1}) == {"y"}

    def test_remove_absent_payload_is_a_noop(self):
        matcher = Matcher()
        matcher.add(F(a=1), "x")
        assert matcher.remove(F(a=1), "y") is False
        assert matcher.matching_payloads({"a": 1}) == {"x"}

    def test_readd_after_removal_reindexes(self):
        matcher = Matcher()
        matcher.add(F(service="parking"), "x")
        matcher.remove(F(service="parking"), "x")
        matcher.add(F(service="parking"), "z")
        assert matcher.matching_payloads({"service": "parking"}) == {"z"}

    def test_equal_numeric_values_share_one_bucket(self):
        matcher = Matcher()
        matcher.add(F(cost=1), "int")
        matcher.add(F(cost=1.0), "float")
        # 1 and 1.0 are the same number: one indexed filter, two rows.
        assert len(matcher.index) == 1
        assert matcher.matching_payloads({"cost": 1}) == {"int", "float"}
        assert matcher.remove(F(cost=1.0), "int")
        assert matcher.matching_payloads({"cost": 1}) == {"float"}

    def test_unhashable_notification_value_falls_back_to_scan(self):
        matcher = Matcher()
        matcher.add(F(service="parking"), "eq")
        matcher.add(F(cost=("<", 3)), "range")
        matcher.add(F(service=("exists",)), "residual")
        # A list-valued attribute cannot be hashed into the value buckets;
        # the matcher must not crash, the other attributes still count and
        # the residual scan list still sees the value.  (``Equals`` refuses
        # to compare a list, so the brute force is undefined here and the
        # expectation is literal.)
        rows = matcher.plan.match({"service": ["not", "hashable"], "cost": 2})
        assert {row.destination for row in rows} == {"range", "residual"}
