"""Unit and randomized tests for the incremental merge engine.

Mirrors ``tests/filters/test_covering_cache.py``: the
:class:`~repro.filters.merge_state.MergePairCache` must be a transparent,
bounded memo of ``try_merge_pair`` (hit/miss accounting, bound respected,
results identical after eviction), and
:class:`~repro.filters.merge_state.MergeState` must be **result-identical**
to :func:`~repro.filters.merging.merge_filters` under arbitrary input
churn — the broker's delta forwarding path relies on it for byte-identical
routing behaviour.
"""

import random

import repro.filters.merge_state as merge_state
from repro.filters.covering import filter_covers
from repro.filters.covering_cache import CoveringCache
from repro.filters.filter import Filter, MatchNone
from repro.filters.merge_state import MergePairCache, MergeState, merge_filters_annotated
from repro.filters.merging import merge_filters, try_merge_pair


def F(**kwargs):
    return Filter(kwargs)


def _pair_cache(**kwargs):
    return MergePairCache(CoveringCache(), **kwargs)


def _count_raw_merges(monkeypatch):
    """Record every raw ``try_merge_pair`` a merge-pair cache runs from now on."""
    raw_merges = []

    def counted(left, right, covers):
        raw_merges.append((left, right))
        return try_merge_pair(left, right, covers)

    monkeypatch.setattr(merge_state, "try_merge_pair", counted)
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


class TestAnnotatedMerge:
    def test_matches_merge_filters_and_reports_membership(self):
        cache = _pair_cache()
        inputs = [_loc("a"), _loc("b"), F(service="fuel"), _loc("c")]
        result, member_root, root_members, intermediates = merge_filters_annotated(
            inputs, cache.merge
        )
        assert [f.key() for f in result] == [f.key() for f in merge_filters(inputs)]
        merged_key = _loc("a", "b", "c").key()
        assert member_root[_loc("a").key()] == merged_key
        assert member_root[_loc("b").key()] == merged_key
        assert member_root[_loc("c").key()] == merged_key
        assert member_root[F(service="fuel").key()] == F(service="fuel").key()
        assert set(root_members[merged_key]) == {
            _loc("a").key(),
            _loc("b").key(),
            _loc("c").key(),
        }
        # Intermediates hold every accumulator value: inputs + products.
        assert _loc("a", "b").key() in intermediates
        assert merged_key in intermediates

    def test_every_member_is_covered_by_its_root(self):
        cache = _pair_cache()
        inputs = [_loc("a"), _loc("a", "b"), F(cost=("<", 5)), F(cost=("<", 9))]
        result, member_root, _, _ = merge_filters_annotated(inputs, cache.merge)
        by_key = {f.key(): f for f in result}
        for filter_ in inputs:
            root = by_key[member_root[filter_.key()]]
            assert filter_covers(root, filter_)


class TestMergeStateFastPaths:
    def test_unchanged_input_is_reused(self):
        state = MergeState(_pair_cache())
        inputs = [_loc("a"), _loc("b")]
        first, _ = state.update(inputs)
        second, _ = state.update(list(inputs))
        assert second is first
        assert state.stats()["reuses"] == 1

    def test_append_that_merges_with_nothing_is_fast(self):
        state = MergeState(_pair_cache())
        state.update([F(a=1), F(b=2)])
        assert state.stats()["replays"] == 1
        merged, member_root = state.update([F(a=1), F(b=2), F(c=3)])
        assert state.stats()["fast_appends"] == 1
        assert state.stats()["replays"] == 1
        assert [f.key() for f in merged] == [
            f.key() for f in merge_filters([F(a=1), F(b=2), F(c=3)])
        ]
        assert member_root[F(c=3).key()] == F(c=3).key()

    def test_append_that_merges_falls_back_to_replay(self):
        state = MergeState(_pair_cache())
        state.update([_loc("a"), F(b=2)])
        merged, _ = state.update([_loc("a"), F(b=2), _loc("c")])
        assert state.stats()["fast_appends"] == 0
        assert state.stats()["replays"] == 2
        assert [f.key() for f in merged] == [
            f.key() for f in merge_filters([_loc("a"), F(b=2), _loc("c")])
        ]

    def test_append_merging_with_an_intermediate_falls_back(self):
        """The conservative test runs against intermediates, not just roots."""
        state = MergeState(_pair_cache())
        # a+b and then +c collapse into one root {a, b, c}; a new filter
        # equal to the *intermediate* {a, b} merges (covering) with it.
        state.update([_loc("a"), _loc("b"), _loc("c")])
        merged, _ = state.update([_loc("a"), _loc("b"), _loc("c"), _loc("a", "b")])
        assert state.stats()["fast_appends"] == 0
        assert [f.key() for f in merged] == [
            f.key() for f in merge_filters([_loc("a"), _loc("b"), _loc("c"), _loc("a", "b")])
        ]

    def test_singleton_removal_is_fast(self):
        state = MergeState(_pair_cache())
        state.update([F(a=1), F(b=2), F(c=3)])
        merged, member_root = state.update([F(a=1), F(c=3)])
        assert state.stats()["fast_removes"] == 1
        assert state.stats()["replays"] == 1
        assert [f.key() for f in merged] == [f.key() for f in merge_filters([F(a=1), F(c=3)])]
        assert F(b=2).key() not in member_root

    def test_group_member_removal_falls_back_to_replay(self):
        state = MergeState(_pair_cache())
        state.update([_loc("a"), _loc("b"), F(c=3)])
        merged, _ = state.update([_loc("a"), F(c=3)])
        assert state.stats()["fast_removes"] == 0
        assert state.stats()["replays"] == 2
        assert [f.key() for f in merged] == [f.key() for f in merge_filters([_loc("a"), F(c=3)])]

    def test_simultaneous_singleton_removal_and_inert_append(self):
        state = MergeState(_pair_cache())
        state.update([F(a=1), F(b=2)])
        merged, _ = state.update([F(a=1), F(c=3)])
        assert state.stats()["fast_removes"] == 1
        assert state.stats()["fast_appends"] == 1
        assert state.stats()["replays"] == 1
        assert [f.key() for f in merged] == [f.key() for f in merge_filters([F(a=1), F(c=3)])]

    def test_reorder_falls_back_to_replay(self):
        state = MergeState(_pair_cache())
        state.update([F(a=1), F(b=2)])
        state.update([F(b=2), F(a=1)])
        assert state.stats()["replays"] == 2

    def test_fast_append_then_later_merge_against_it(self):
        """A fast-appended filter becomes a merge candidate for the next append."""
        state = MergeState(_pair_cache())
        state.update([F(a=1)])
        state.update([F(a=1), _loc("x")])  # fast append (no merge possible)
        assert state.stats()["fast_appends"] == 1
        merged, _ = state.update([F(a=1), _loc("x"), _loc("y")])  # merges with _loc("x")
        assert state.stats()["replays"] == 2
        assert [f.key() for f in merged] == [
            f.key() for f in merge_filters([F(a=1), _loc("x"), _loc("y")])
        ]


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


def test_randomized_churn_is_result_identical_to_merge_filters():
    """Under arbitrary add/remove churn the forest equals the from-scratch merge."""
    for seed in (3, 17, 99):
        rng = random.Random(seed)
        state = MergeState(_pair_cache())
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
            merged, member_root = state.update(list(inputs))
            expected = merge_filters(inputs)
            assert [f.key() for f in merged] == [f.key() for f in expected]
            # Forest invariants: every input belongs to exactly one group
            # whose root is in the result and covers it.
            result_keys = {f.key() for f in merged}
            by_key = {f.key(): f for f in merged}
            assert set(member_root) == {f.key() for f in inputs}
            for filter_ in inputs:
                root_key = member_root[filter_.key()]
                assert root_key in result_keys
                assert filter_covers(by_key[root_key], filter_)
        stats = state.stats()
        # The fast paths and the replay fallback must all have fired.
        assert stats["replays"] > 0
        assert stats["fast_appends"] > 0
        assert stats["fast_removes"] > 0
