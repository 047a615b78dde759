"""Unit tests for filter merging and the pair-merge cache.

:class:`~repro.filters.merging.MergePairCache` must be a transparent,
bounded memo of ``try_merge_pair`` (hit/miss accounting, bound respected,
results identical after eviction): the broker's merging mode runs
``merge_filters`` through it and must stay result-identical to the
uncached definition.
"""

import random

import repro.filters.merging as merging
from repro.filters.covering import filter_covers
from repro.filters.covering_cache import CoveringCache
from repro.filters.filter import Filter, MatchNone
from repro.filters.merging import MergePairCache, merge_filters, try_merge_pair


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

    def test_merge_filters_empty_input(self):
        assert merge_filters([]) == []
        assert merge_filters([MatchNone()]) == []


def _pair_cache(**kwargs):
    return MergePairCache(CoveringCache(), **kwargs)


def _count_raw_merges(monkeypatch):
    """Record every raw ``try_merge_pair`` a merge-pair cache runs from now on."""
    raw_merges = []

    def counted(left, right, covers):
        raw_merges.append((left, right))
        return try_merge_pair(left, right, covers)

    monkeypatch.setattr(merging, "try_merge_pair", counted)
    return raw_merges


def _loc(*locations):
    return Filter({"service": "parking", "location": ("in", tuple(locations))})


class TestMergePairCache:
    def test_hit_miss_accounting(self):
        cache = _pair_cache()
        left, right = _loc("a"), _loc("b")
        merged = cache.merge(left, right)
        assert merged == _loc("a", "b")
        assert cache.stats() == {"hits": 0, "misses": 1, "evictions": 0, "entries": 1}
        assert cache.merge(left, right) == merged
        assert cache.stats()["hits"] == 1
        # The reverse direction is a distinct key pair.
        assert cache.merge(right, left) == merged
        assert cache.stats()["misses"] == 2

    def test_failed_merges_are_cached(self, monkeypatch):
        cache = _pair_cache()
        left, right = F(a=1), F(b=2)
        assert cache.merge(left, right) is None
        raw_merges = _count_raw_merges(monkeypatch)
        assert cache.merge(left, right) is None
        assert raw_merges == []
        assert cache.stats()["hits"] == 1

    def test_cached_result_skips_recomputation(self, monkeypatch):
        cache = _pair_cache()
        left, right = _loc("a"), _loc("b")
        cache.merge(left, right)
        raw_merges = _count_raw_merges(monkeypatch)
        cache.merge(left, right)
        assert raw_merges == []

    def test_equal_keys_share_cache_entries(self):
        cache = _pair_cache()
        cache.merge(F(a=1, b=2), F(a=2, b=2))
        # A structurally identical pair must hit, not miss.
        assert cache.merge(F(b=2, a=1), F(b=2, a=2)) == F(a=("in", (1, 2)), b=2)
        assert cache.stats()["hits"] == 1

    def test_eviction_respects_bound_and_stays_correct(self):
        cache = _pair_cache(max_entries=2)
        pairs = [(_loc("a"), _loc(chr(ord("b") + index))) for index in range(4)]
        for left, right in pairs:
            expected = try_merge_pair(left, right)
            assert cache.merge(left, right) == expected
        assert cache.evictions >= 1
        assert len(cache) <= 2
        # Results after an eviction are identical to the raw computation.
        for left, right in pairs:
            assert cache.merge(left, right) == try_merge_pair(left, right)

    def test_covering_tests_inside_a_merge_use_its_covering_cache(self):
        covering = CoveringCache()
        cache = MergePairCache(covering)
        # Neither direction is known yet: both covering tests run raw, once.
        assert cache.merge(_loc("a"), _loc("a", "b")) == _loc("a", "b")
        assert covering.stats()["misses"] == 2
        # A new pair whose covering tests are already cached runs none.
        assert cache.merge(_loc("a", "b"), _loc("a")) == _loc("a", "b")
        assert covering.stats()["misses"] == 2

    def test_match_none_is_neutral_through_the_cache(self):
        cache = _pair_cache()
        assert cache.merge(MatchNone(), F(a=1)) == F(a=1)
        assert cache.merge(F(a=1), MatchNone()) == F(a=1)

    def test_merge_filters_through_the_cache_equals_the_uncached_result(self):
        inputs = [_loc("a"), _loc("b"), F(service="fuel"), _loc("c")]
        cached = merge_filters(inputs, pair_merge=_pair_cache().merge)
        assert cached == merge_filters(inputs) == [_loc("a", "b", "c"), F(service="fuel")]

    def test_repeated_reduction_runs_no_raw_merge(self, monkeypatch):
        cache = _pair_cache()
        inputs = [_loc("a"), _loc("b"), F(service="fuel"), _loc("c")]
        first = merge_filters(inputs, pair_merge=cache.merge)
        raw_merges = _count_raw_merges(monkeypatch)
        # Input pairs and merge products alike are answered from the cache.
        assert merge_filters(list(inputs), pair_merge=cache.merge) == first
        assert raw_merges == []


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
        cache = _pair_cache()
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
            cached = merge_filters(inputs, pair_merge=cache.merge)
            assert [f.key() for f in cached] == [f.key() for f in merge_filters(inputs)]
        # Recurring pairs (intermediates included) were answered from the cache.
        assert cache.hits > cache.misses
