"""Unit tests for filter merging and the network's pair memos.

:class:`~repro.filters.merging.PairMemo` must be a transparent, bounded
memo (hit/miss accounting, cached ``False`` and ``None``, bound respected,
results identical after eviction): the broker's covering and merging modes
run ``filter_covers`` and ``try_merge_pair`` through the two memos of
:class:`~repro.filters.merging.FilterCaches` and must stay result-identical
to the raw definitions.
"""

import random
from typing import Callable, NamedTuple

import pytest

from repro.filters.covering import filter_covers
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.filters.merging import FilterCaches, PairMemo, merge_filters, try_merge_pair


def F(**kwargs):
    return Filter(kwargs)


class TestPairMerging:
    def test_identical_filters_merge_to_themselves(self):
        assert try_merge_pair(F(a=1), F(a=1)) == F(a=1)

    def test_covering_filter_wins(self):
        wide = F(cost=("<", 10))
        narrow = F(cost=("<", 3))
        assert try_merge_pair(wide, narrow) == wide
        assert try_merge_pair(narrow, wide) == wide

    def test_equality_constraints_merge_to_set(self):
        merged = try_merge_pair(F(location="a"), F(location="b"))
        assert merged is not None
        assert merged.matches({"location": "a"})
        assert merged.matches({"location": "b"})
        assert not merged.matches({"location": "c"})

    def test_location_sets_merge_to_union(self):
        merged = try_merge_pair(
            F(service="parking", location=("in", ["a", "b"])),
            F(service="parking", location=("in", ["b", "c"])),
        )
        assert merged is not None
        for loc in "abc":
            assert merged.matches({"service": "parking", "location": loc})
        assert not merged.matches({"service": "fuel", "location": "a"})

    def test_overlapping_intervals_merge(self):
        merged = try_merge_pair(F(cost=("between", 0, 5)), F(cost=("between", 3, 10)))
        assert merged is not None
        assert merged.matches({"cost": 7})
        assert merged.matches({"cost": 1})
        assert not merged.matches({"cost": 11})

    def test_disjoint_intervals_do_not_merge(self):
        assert try_merge_pair(F(cost=("between", 0, 1)), F(cost=("between", 5, 6))) is None

    def test_filters_differing_in_two_attributes_do_not_merge(self):
        assert try_merge_pair(F(a=1, b=1), F(a=2, b=2)) is None

    def test_different_attribute_sets_do_not_merge(self):
        assert try_merge_pair(F(a=1), F(b=1)) is None

    def test_match_none_is_neutral(self):
        assert try_merge_pair(MatchNone(), F(a=1)) == F(a=1)
        assert try_merge_pair(F(a=1), MatchNone()) == F(a=1)

    def test_merge_covers_both_inputs(self):
        left = F(service="parking", location=("in", ["a"]))
        right = F(service="parking", location=("in", ["b", "c"]))
        merged = try_merge_pair(left, right)
        assert merged is not None
        assert filter_covers(merged, left)
        assert filter_covers(merged, right)


class TestSetMerging:
    def test_merge_filters_collapses_chain(self):
        filters = [F(location=("in", [loc])) for loc in "abcd"]
        merged = merge_filters(filters)
        assert len(merged) == 1
        for loc in "abcd":
            assert merged[0].matches({"location": loc})

    def test_merge_filters_keeps_unmergeable_separate(self):
        filters = [F(a=1), F(b=2)]
        merged = merge_filters(filters)
        assert len(merged) == 2

    def test_merge_filters_union_preserved(self):
        filters = [
            F(service="parking", location="a"),
            F(service="parking", location="b"),
            F(service="fuel", location="a"),
        ]
        merged = merge_filters(filters)
        samples = [
            {"service": service, "location": loc}
            for service in ("parking", "fuel", "towing")
            for loc in ("a", "b", "c")
        ]
        for sample in samples:
            assert any(f.matches(sample) for f in filters) == any(
                f.matches(sample) for f in merged
            )

    def test_a_later_product_absorbs_an_earlier_result(self):
        # first merges with neither of the others, but their product covers
        # it: only the second pass merges it away, so no result covers another.
        first = F(x=("in", (1, 2)), y=("in", (1, 2)))
        others = [F(x=("in", (1, 2, 3)), y=1), F(x=("in", (1, 2, 3)), y=2)]
        assert [try_merge_pair(first, other) for other in others] == [None, None]
        product = F(x=("in", (1, 2, 3)), y=("in", (1, 2)))
        assert filter_covers(product, first)
        assert merge_filters([first] + others) == [product]

    def test_merge_filters_empty_input(self):
        assert merge_filters([]) == []
        assert merge_filters([MatchNone()]) == []


def _loc(*locations):
    return Filter({"service": "parking", "location": ("in", tuple(locations))})


def _recorded(fn):
    """*fn*, and the list of the argument pairs it is called with."""
    calls = []

    def recorded(left, right):
        calls.append((left, right))
        return fn(left, right)

    return recorded, calls


class MemoCase(NamedTuple):
    """A function ``FilterCaches`` memoises, with pairs to exercise it on."""

    fn: Callable
    pair: tuple  # answered positively
    same_pair: tuple  # *pair* built in another constraint order
    negative_pair: tuple  # answered ``False`` / ``None``
    shared_left: list  # four pairs with one left filter, for eviction


MEMO_CASES = {
    "covering": MemoCase(
        filter_covers,
        (F(a=1), F(a=1, b=2)),
        (F(a=1), F(b=2, a=1)),
        (F(a=1), F(a=2)),
        [(F(a=0), F(a=index)) for index in range(4)],
    ),
    "merge": MemoCase(
        try_merge_pair,
        (F(a=1, b=2), F(a=2, b=2)),
        (F(b=2, a=1), F(b=2, a=2)),
        (F(a=1), F(b=2)),
        [(_loc("a"), _loc(chr(ord("b") + index))) for index in range(4)],
    ),
}


@pytest.fixture(params=sorted(MEMO_CASES))
def case(request):
    return MEMO_CASES[request.param]


class TestPairMemo:
    def test_hit_miss_accounting(self, case):
        memo = PairMemo(case.fn, 10)
        left, right = case.pair
        assert memo(left, right) == case.fn(left, right)
        assert memo.stats() == {"hits": 0, "misses": 1, "evictions": 0, "entries": 1}
        assert memo(left, right) == case.fn(left, right)
        assert memo.stats() == {"hits": 1, "misses": 1, "evictions": 0, "entries": 1}
        # The reverse direction is a distinct key pair.
        assert memo(right, left) == case.fn(right, left)
        assert memo.stats()["misses"] == 2
        assert len(memo) == 2

    def test_cached_false_and_none_skip_recomputation(self, case):
        left, right = case.negative_pair
        result = case.fn(left, right)
        assert result is (False if case.fn is filter_covers else None)
        recorded, calls = _recorded(case.fn)
        memo = PairMemo(recorded, 10)
        assert memo(left, right) is result
        assert memo(left, right) is result
        assert calls == [(left, right)]
        assert (memo.hits, memo.misses) == (1, 1)

    def test_equal_keys_share_an_entry(self, case):
        memo = PairMemo(case.fn, 10)
        memo(*case.pair)
        # A structurally identical pair must hit, not miss.
        assert memo(*case.same_pair) == case.fn(*case.same_pair) == case.fn(*case.pair)
        assert (memo.hits, memo.misses, len(memo)) == (1, 1, 1)

    def test_eviction_at_the_bound_stays_correct(self, case):
        memo = PairMemo(case.fn, max_entries=2)
        for left, right in case.shared_left:
            assert memo(left, right) == case.fn(left, right)
            assert len(memo) <= 2
        assert memo.evictions == 1
        # Results after an eviction are identical to the raw computation.
        for left, right in case.shared_left:
            assert memo(left, right) == case.fn(left, right)


class TestFilterCaches:
    def test_special_filters_through_the_covering_memo(self):
        covers = FilterCaches().covering
        assert covers(MatchAll(), F(a=1)) is True
        assert covers(MatchNone(), F(a=1)) is False
        assert covers(F(a=1), MatchNone()) is True
        assert covers(F(a=1), MatchAll()) is False

    def test_covering_tests_inside_a_merge_use_the_covering_memo(self):
        caches = FilterCaches()
        # Neither direction is known yet: both covering tests run raw, once.
        assert caches.merge_pairs(_loc("a"), _loc("a", "b")) == _loc("a", "b")
        assert caches.covering.misses == 2
        # A new pair whose covering tests are already cached runs none.
        assert caches.merge_pairs(_loc("a", "b"), _loc("a")) == _loc("a", "b")
        assert caches.covering.misses == 2
        assert caches.merge_pairs.misses == 2

    def test_match_none_is_neutral_through_the_merge_memo(self):
        merge = FilterCaches().merge_pairs
        assert merge(MatchNone(), F(a=1)) == F(a=1)
        assert merge(F(a=1), MatchNone()) == F(a=1)

    def test_merge_filters_through_the_memo_equals_the_unmemoised_result(self):
        inputs = [_loc("a"), _loc("b"), F(service="fuel"), _loc("c")]
        memoised = merge_filters(inputs, pair_merge=FilterCaches().merge_pairs)
        assert memoised == merge_filters(inputs) == [_loc("a", "b", "c"), F(service="fuel")]

    def test_repeated_reduction_runs_no_raw_merge(self):
        caches = FilterCaches()
        inputs = [_loc("a"), _loc("b"), F(service="fuel"), _loc("c")]
        first = merge_filters(inputs, pair_merge=caches.merge_pairs)
        misses = caches.merge_pairs.misses, caches.covering.misses
        # Input pairs and merge products alike are answered from the memos.
        assert merge_filters(list(inputs), pair_merge=caches.merge_pairs) == first
        assert (caches.merge_pairs.misses, caches.covering.misses) == misses


LOCATIONS = ["l{}".format(index) for index in range(8)]


def _random_filter(rng):
    roll = rng.random()
    if roll < 0.5:
        span = rng.randint(1, 3)
        start = rng.randint(0, len(LOCATIONS) - span)
        return _loc(*LOCATIONS[start : start + span])
    if roll < 0.7:
        return F(cost=("between", rng.randint(0, 4), rng.randint(5, 9)))
    if roll < 0.85:
        return F(service=rng.choice(["fuel", "towing"]))
    return Filter({"x": rng.randint(1, 3), "y": rng.randint(1, 3)})


def test_cached_merge_under_churn_is_result_identical():
    """One cache kept across add/remove churn never changes a merge result."""
    for seed in (3, 17, 99):
        rng = random.Random(seed)
        cache = FilterCaches().merge_pairs
        inputs = []
        seen = set()
        for _ in range(160):
            if inputs and rng.random() < 0.45:
                removed = inputs.pop(rng.randrange(len(inputs)))
                seen.discard(removed.key())
            else:
                candidate = _random_filter(rng)
                if candidate.key() in seen:
                    continue
                seen.add(candidate.key())
                inputs.append(candidate)
            cached = merge_filters(inputs, pair_merge=cache)
            assert [f.key() for f in cached] == [f.key() for f in merge_filters(inputs)]
        # Recurring pairs (intermediates included) were answered from the cache.
        assert cache.hits > cache.misses
