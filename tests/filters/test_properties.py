"""Property-based tests (hypothesis) for the filter algebra.

The invariants checked here are the ones the routing layer relies on for
correctness:

* covering soundness — ``F1 covers F2``  ⟹  every notification matched by
  ``F2`` is matched by ``F1``;
* merge soundness — a perfect merge matches exactly the union of its base
  filters (on arbitrary sampled notifications);
* minimal-cover-set equivalence — reducing a filter set never changes the
  union of accepted notifications;
* matching-engine agreement with brute force: the routing table's one
  matcher, the dispatch plan, returns the rows the oracle returns.
"""

from hypothesis import given, settings, strategies as st

from repro.dispatch.plan import DispatchPlan
from repro.filters.covering import filter_covers
from repro.filters.filter import Filter
from repro.filters.merging import merge_filters, try_merge_pair
from repro.routing.table import RoutingTable

from tests.oracles.forwarding import minimal_cover_set
from tests.oracles.matching import checked_match

ATTRIBUTES = ["service", "location", "cost", "floor"]
STRING_VALUES = ["parking", "fuel", "a", "b", "c", "d"]
NUMBER_VALUES = [0, 1, 2, 3, 5, 10]


def constraint_specs():
    """Strategy producing terse constraint specifications."""
    return st.one_of(
        st.sampled_from(STRING_VALUES),
        st.sampled_from(NUMBER_VALUES),
        st.tuples(st.sampled_from(["<", "<=", ">", ">="]), st.sampled_from(NUMBER_VALUES)),
        st.tuples(st.just("in"), st.lists(st.sampled_from(STRING_VALUES), min_size=1, max_size=4)),
        st.tuples(
            st.just("between"),
            st.sampled_from(NUMBER_VALUES),
            st.sampled_from(NUMBER_VALUES),
        ).filter(lambda spec: spec[1] <= spec[2]),
    )


def filters():
    """Strategy producing small conjunctive filters."""
    return st.dictionaries(
        st.sampled_from(ATTRIBUTES), constraint_specs(), min_size=1, max_size=3
    ).map(Filter)


def notifications():
    """Strategy producing notification attribute mappings."""
    return st.dictionaries(
        st.sampled_from(ATTRIBUTES),
        st.one_of(st.sampled_from(STRING_VALUES), st.sampled_from(NUMBER_VALUES)),
        min_size=0,
        max_size=4,
    )


@settings(max_examples=200, deadline=None)
@given(covering=filters(), covered=filters(), notification=notifications())
def test_covering_is_sound(covering, covered, notification):
    if filter_covers(covering, covered) and covered.matches(notification):
        assert covering.matches(notification)


@settings(max_examples=200, deadline=None)
@given(filter_=filters())
def test_every_filter_covers_itself(filter_):
    assert filter_covers(filter_, filter_)


@settings(max_examples=200, deadline=None)
@given(left=filters(), right=filters(), notification=notifications())
def test_pair_merge_is_exact(left, right, notification):
    merged = try_merge_pair(left, right)
    if merged is None:
        return
    union_matches = left.matches(notification) or right.matches(notification)
    assert merged.matches(notification) == union_matches


@settings(max_examples=100, deadline=None)
@given(filter_list=st.lists(filters(), min_size=1, max_size=6), notification=notifications())
def test_merge_filters_preserves_union(filter_list, notification):
    merged = merge_filters(filter_list)
    original = any(f.matches(notification) for f in filter_list)
    reduced = any(f.matches(notification) for f in merged)
    assert original == reduced


@settings(max_examples=100, deadline=None)
@given(filter_list=st.lists(filters(), min_size=1, max_size=6), notification=notifications())
def test_minimal_cover_set_preserves_union(filter_list, notification):
    minimal = minimal_cover_set(filter_list)
    assert len(minimal) <= len(filter_list)
    original = any(f.matches(notification) for f in filter_list)
    reduced = any(f.matches(notification) for f in minimal)
    assert original == reduced


@settings(max_examples=100, deadline=None)
@given(filter_list=st.lists(filters(), min_size=0, max_size=8), notification=notifications())
def test_matching_engine_agrees_with_bruteforce(filter_list, notification):
    table = RoutingTable()
    plan = DispatchPlan(table, RoutingTable())
    for index, filter_ in enumerate(filter_list):
        table.add(filter_, "link-{}".format(index), "s")
    expected = {index for index, filter_ in enumerate(filter_list) if filter_.matches(notification)}
    assert {row.destination for row in checked_match(plan, table, notification)} == {
        "link-{}".format(index) for index in expected
    }


@settings(max_examples=100, deadline=None)
@given(left=filters(), right=filters())
def test_mutual_covering_means_equivalence_on_samples(left, right):
    """If two filters cover each other they accept the same sample notifications."""
    if filter_covers(left, right) and filter_covers(right, left):
        samples = [
            {"service": "parking", "location": "a", "cost": 1},
            {"service": "fuel", "location": "d", "cost": 10},
            {"cost": 3},
            {},
        ]
        for sample in samples:
            assert left.matches(sample) == right.matches(sample)
