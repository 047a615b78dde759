"""Unit tests for the filter-level covering relation."""

from repro.filters.covering import filter_covers
from repro.filters.filter import Filter, MatchAll, MatchNone

from tests.oracles.forwarding import minimal_cover_set
from tests.oracles.matching import filters_overlap_hint


def F(**kwargs):
    return Filter(kwargs)


class TestFilterCovers:
    def test_identical_filters_cover_each_other(self):
        left = F(a=1, b=("<", 3))
        right = F(a=1, b=("<", 3))
        assert filter_covers(left, right)
        assert filter_covers(right, left)
        assert left.key() == right.key()

    def test_fewer_constraints_cover_more(self):
        general = F(service="parking")
        specific = F(service="parking", cost=("<", 3))
        assert filter_covers(general, specific)
        assert not filter_covers(specific, general)

    def test_wider_constraint_covers_narrower(self):
        wide = F(cost=("<", 10))
        narrow = F(cost=("<", 3))
        assert filter_covers(wide, narrow)
        assert not filter_covers(narrow, wide)

    def test_location_set_covering(self):
        wide = F(location=("in", ["a", "b", "c"]))
        narrow = F(location=("in", ["a", "b"]))
        assert filter_covers(wide, narrow)
        assert not filter_covers(narrow, wide)

    def test_disjoint_attributes_do_not_cover(self):
        assert not filter_covers(F(a=1), F(b=1))

    def test_match_all_and_match_none(self):
        assert filter_covers(MatchAll(), F(a=1))
        assert not filter_covers(F(a=1), MatchAll())
        assert filter_covers(F(a=1), MatchNone())
        assert not filter_covers(MatchNone(), F(a=1))
        assert filter_covers(MatchNone(), MatchNone())

    def test_covering_implies_matching_superset(self):
        """Behavioural soundness: everything the covered filter matches,
        the covering filter matches too."""
        covering = F(service="parking", location=("in", ["a", "b", "c"]))
        covered = F(service="parking", location=("in", ["a", "b"]), cost=("<", 3))
        assert filter_covers(covering, covered)
        notifications = [
            {"service": "parking", "location": "a", "cost": 1},
            {"service": "parking", "location": "b", "cost": 2},
            {"service": "parking", "location": "c", "cost": 2},
            {"service": "fuel", "location": "a", "cost": 1},
        ]
        for notification in notifications:
            if covered.matches(notification):
                assert covering.matches(notification)


class TestSetHelpers:
    def test_minimal_cover_set_drops_redundant(self):
        filters = [F(cost=("<", 3)), F(cost=("<", 10)), F(service="parking")]
        minimal = minimal_cover_set(filters)
        assert F(cost=("<", 10)) in minimal
        assert F(service="parking") in minimal
        assert F(cost=("<", 3)) not in minimal

    def test_minimal_cover_set_keeps_one_of_equivalent(self):
        filters = [F(a=1), F(a=1)]
        assert len(minimal_cover_set(filters)) == 1

    def test_minimal_cover_set_preserves_union(self):
        filters = [
            F(location=("in", ["a"])),
            F(location=("in", ["a", "b"])),
            F(location=("in", ["c"])),
        ]
        minimal = minimal_cover_set(filters)
        notifications = [{"location": loc} for loc in "abc"]
        for notification in notifications:
            original = any(f.matches(notification) for f in filters)
            reduced = any(f.matches(notification) for f in minimal)
            assert original == reduced


class TestOverlapHint:
    def test_disjoint_equalities_reported(self):
        assert not filters_overlap_hint(F(a=1), F(a=2))
        assert not filters_overlap_hint(F(a=("in", ["x"])), F(a=("in", ["y"])))

    def test_possible_overlap_is_conservative(self):
        assert filters_overlap_hint(F(a=1), F(b=2))
        assert filters_overlap_hint(F(a=("<", 5)), F(a=(">", 1)))

    def test_match_none_never_overlaps(self):
        assert not filters_overlap_hint(MatchNone(), F(a=1))
