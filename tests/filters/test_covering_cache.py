"""Unit and property tests for the covering index.

The load-bearing invariant: both of :class:`CoveringIndex`'s candidate
queries are **sound supersets** — they never hide a covering pair, after
any interleaving of adds and removes — because the broker's covering
mode asks its covering questions of their answers only, and must stay
equal to the from-scratch specification.
"""

from hypothesis import given, settings, strategies as st

from repro.filters.covering import filter_covers
from repro.filters.covering_cache import CoveringIndex
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.filters.merging import FilterCaches


def F(**kwargs):
    return Filter(kwargs)


class TestCoveringIndex:
    def _candidates(self, coverers, target):
        index = CoveringIndex()
        for position, filter_ in enumerate(coverers):
            index.add(position, filter_)
        return set(index.candidate_positions(target))

    def test_candidates_are_sound(self):
        coverers = [
            F(service="parking"),
            F(service="fuel"),
            F(location=("in", ["a", "b"])),
            F(cost=("<", 5)),
            MatchAll(),
        ]
        target = F(service="parking", location="a", cost=2)
        candidates = self._candidates(coverers, target)
        for position, coverer in enumerate(coverers):
            if filter_covers(coverer, target):
                assert position in candidates

    def test_incompatible_equality_pruned(self):
        coverers = [F(service="parking"), F(service="fuel")]
        target = F(service="parking", location="a")
        candidates = self._candidates(coverers, target)
        assert 0 in candidates
        assert 1 not in candidates  # service=fuel can never cover service=parking

    def test_disjoint_sets_pruned(self):
        coverers = [F(location=("in", ["a", "b"])), F(location=("in", ["x", "y"]))]
        target = F(location=("in", ["a"]))
        candidates = self._candidates(coverers, target)
        assert 0 in candidates
        assert 1 not in candidates

    def test_shared_equality_does_not_defeat_pruning(self):
        # Every filter shares service=parking, so every query looks at that
        # equality's bucket.  Only the first filter, on an empty index,
        # anchors there; each later one finds the equality's covered-side
        # bucket fuller than its location buckets and anchors on those, so
        # provably disjoint coverers are pruned.
        coverers = [
            F(service="parking", location=("in", ["a", "b"])),
            F(service="parking", location=("in", ["c", "d"])),
            F(service="parking", location=("in", ["e", "f"])),
            F(service="parking", location=("in", ["g", "h"])),
        ]
        index = CoveringIndex()
        for position, coverer in enumerate(coverers):
            index.add(position, coverer)
        anchors = [index._filed[position][0] for position in range(len(coverers))]
        assert anchors == ["service", "location", "location", "location"]
        target = F(service="parking", location=("in", ["e"]))
        # The only possible coverer, and the first filter from the shared
        # bucket; the other disjoint ones are pruned.
        assert set(index.candidate_positions(target)) == {0, 2}
        for position, coverer in enumerate(coverers):
            if filter_covers(coverer, target):
                assert position in index.candidate_positions(target)

    def test_a_coverer_is_looked_up_in_the_smallest_bucket_of_all_values(self):
        # A coverer accepts every value the target accepts there, so the
        # query reads the smallest of the target's value buckets, and none
        # at all when one of them is empty.
        coverers = [
            F(location=("in", ["a", "b"])),
            F(location=("in", ["a", "b", "c"])),
            F(location=("in", ["a", "x"])),
            F(location=("in", ["a", "y"])),
        ]
        assert self._candidates(coverers, F(location=("in", ["a", "b"]))) == {0, 1}
        assert self._candidates(coverers, F(location=("in", ["b", "c"]))) == {1}
        assert self._candidates(coverers, F(location=("in", ["a", "z"]))) == set()
        assert self._candidates(coverers, F(location="a")) == {0, 1, 2, 3}

    def test_a_strict_range_anchors_where_fewer_targets_look(self):
        # `cost < 5` next to the shared equality: every target looks at the
        # equality's bucket, only the cost-constraining ones at cost's.
        index = CoveringIndex()
        for position in range(3):
            index.add(position, F(service="parking", location="loc-{}".format(position)))
        index.add(3, F(service="parking", cost=("<", 5)))
        assert index._filed[3][0] == "cost"
        assert index._by_attr == {"cost": [3]}
        assert 3 not in index.candidate_positions(F(service="parking", location="loc-1"))
        assert 3 in index.candidate_positions(F(service="parking", cost=("<", 2)))

    def test_equal_filters_are_placed_alike_however_their_values_were_listed(self):
        # An `in` constraint's anchor bucket is its first canonical key, not
        # its first listed value: equal filters answer alike, so the covering
        # work of a run does not depend on which equal object a row holds.
        listed = [
            F(service="parking", location=("in", ["loc-4", "loc-1"])),
            F(service="parking", location=("in", ["loc-1", "loc-4"])),
        ]
        assert listed[0] == listed[1]
        others = [F(service="parking", location=name) for name in ("loc-1", "loc-4", "loc-4")]
        indexes = []
        for filter_ in listed:
            index = CoveringIndex()
            for position, other in enumerate(others + [filter_]):
                index.add(position, other)
            indexes.append(index)
        first, second = indexes
        assert first._filed == second._filed
        assert (first._by_attr, first._by_value) == (second._by_attr, second._by_value)
        for probe in others + listed:
            assert first.candidate_positions(probe) == second.candidate_positions(probe)
            assert first.covered_candidate_positions(probe) == (
                second.covered_candidate_positions(probe)
            )

    def test_half_open_degenerate_interval_not_pruned(self):
        # A closed [5, 5] covers the half-open [5, 5) (which accepts
        # nothing); the index must classify both as finite so the value
        # bucket is consulted.  Regression test: a pruned covering
        # reduction used to keep the half-open filter that the
        # specification drops.
        from repro.filters.constraints import Between

        closed = Filter({"a": Between(5, 5)})
        half_open = Filter({"a": Between(5, 5, low_inclusive=False)})
        assert filter_covers(closed, half_open)
        assert 0 in self._candidates([closed], half_open)


class TestCoveredCandidates:
    """The dual query: whom might a filter cover?"""

    def _candidates(self, indexed, coverer):
        index = CoveringIndex()
        for position, filter_ in enumerate(indexed):
            index.add(position, filter_)
        return _covered_candidates(index, coverer)

    def test_half_open_degenerate_interval_found_under_its_value(self):
        # [5, 5) accepts nothing but the closed [5, 5] covers it, and a=5
        # or a∈{4,5} cover the closed one: zero-width intervals must sit in
        # the value bucket their finite coverers query.
        from repro.filters.constraints import Between

        closed = Filter({"a": Between(5, 5)})
        half_open = Filter({"a": Between(5, 5, low_inclusive=False)})
        indexed = [half_open, closed, F(a=6)]
        assert filter_covers(closed, half_open)
        assert self._candidates(indexed, closed) == {0, 1}
        for coverer in (F(a=5), F(a=("in", [4, 5]))):
            assert filter_covers(coverer, closed)
            assert self._candidates(indexed, coverer) == {0, 1}

    def test_special_filters_on_either_side(self):
        indexed = [F(a=1), MatchAll(), Filter({}), F(b=2)]
        everything = set(range(len(indexed)))
        # No strict constraint: covers everything, nothing can be pruned.
        for coverer in (MatchAll(), Filter({}), F(a=("any",))):
            assert self._candidates(indexed, coverer) == everything
        # The universal filters are covered only by coverers without
        # strict constraints.
        assert self._candidates(indexed, F(a=1)) == {0}
        assert self._candidates(indexed, F(zzz=1)) == set()

    def test_bare_range_filter_uses_the_emptier_attribute_bucket(self):
        # `cost between` has no finite constraint besides the service
        # equality every filter shares; the answer comes from the filters
        # that constrain cost at all.
        indexed = [F(service="parking", location=name) for name in "abcdef"]
        indexed.append(F(service="parking", cost=3))
        indexed.append(F(service="parking", cost=("between", 2, 4), location="a"))
        coverer = F(service="parking", cost=("between", 1, 5))
        assert self._candidates(indexed, coverer) == {6, 7}
        # The shared equality alone cannot prune anything.
        assert self._candidates(indexed, F(service="parking")) == set(range(8))

    def test_least_loaded_constraint_answers(self):
        indexed = [F(service="parking", location=name) for name in "aabbbc"]
        coverer = F(service="parking", location=("in", ["a", "c"]))
        assert self._candidates(indexed, coverer) == {0, 1, 5}

    def test_remove_undoes_every_placement(self):
        from repro.filters.constraints import Between

        index = CoveringIndex()
        filters = [
            F(service="parking", location=("in", ["a", "b"]), cost=("<", 5)),
            F(cost=("between", 1, 5)),
            Filter({"a": Between(5, 5, high_inclusive=False), "b": ("any",)}),
            MatchAll(),
        ]
        for position, filter_ in enumerate(filters):
            index.add(position, filter_)
        index.add(99, F(service="parking", cost=1))
        index.remove(99)
        assert 99 not in _covered_candidates(index, F(service="parking"))
        for position in range(len(filters)):
            index.remove(position)
        index.remove(0)  # unknown positions are a no-op
        for name in CoveringIndex.__slots__:
            assert not getattr(index, name), name


def _covered_candidates(index, coverer):
    positions = index.covered_candidate_positions(coverer)
    assert len(positions) == len(set(positions))
    return set(positions)


ATTRIBUTES = ["service", "location", "cost"]
LOCATIONS = ["a", "b", "c", "d", "e"]


def random_filter():
    """One filter over three attributes sharing one value pool, so that a
    filter often has several finite constraints and its anchor depends on
    the bucket loads when it is added.  No ``MatchNone``: the index never
    holds or answers for one."""
    from repro.filters.constraints import Between

    constraint = st.one_of(
        st.sampled_from(LOCATIONS),
        st.tuples(st.just("in"), st.lists(st.sampled_from(LOCATIONS), min_size=1, max_size=4)),
        st.tuples(st.sampled_from(["<", ">=", "<="]), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("between"), st.integers(0, 4), st.integers(5, 9)),
        st.builds(
            Between,
            st.integers(0, 3),
            st.just(3),
            low_inclusive=st.booleans(),
            high_inclusive=st.booleans(),
        ),
        st.just(("any",)),
        st.just(("exists",)),
    )
    single = st.dictionaries(st.sampled_from(ATTRIBUTES), constraint, min_size=0, max_size=3).map(
        Filter
    )
    return st.one_of(single, st.just(MatchAll()))


def shared_equality_filter():
    """One filter of a population that all shares ``service = parking``,
    next to strict constraints that are finite (``=``, ``in``) or not
    (``<``, ``between``): the shape on which the anchor must leave the
    shared equality once its bucket fills."""
    constraint = st.one_of(
        st.sampled_from(LOCATIONS),
        st.tuples(st.just("in"), st.lists(st.sampled_from(LOCATIONS), min_size=1, max_size=3)),
        st.tuples(st.just("<"), st.integers(min_value=1, max_value=9)),
        st.tuples(st.just("between"), st.integers(0, 4), st.integers(4, 9)),
    )
    return st.dictionaries(st.sampled_from(["location", "cost"]), constraint, max_size=2).map(
        lambda extra: Filter(dict(extra, service="parking"))
    )


def random_filters():
    return st.one_of(
        st.lists(random_filter(), max_size=12),
        st.lists(st.one_of(shared_equality_filter(), random_filter()), max_size=12),
    )


@given(
    st.one_of(
        st.lists(st.one_of(random_filter(), st.just(MatchNone())), max_size=12),
        st.lists(
            st.one_of(shared_equality_filter(), random_filter(), st.just(MatchNone())),
            max_size=12,
        ),
    )
)
@settings(max_examples=200, deadline=None)
def test_cache_agrees_with_filter_covers(filters):
    """The covering memo agrees with ``Filter.covers`` on both populations
    the index properties draw, with ``MatchNone`` mixed in: the index
    never holds one, but the memo still answers for it."""
    covers = FilterCaches().covering
    for left in filters:
        for right in filters:
            assert covers(left, right) == filter_covers(left, right)


@given(random_filters())
@settings(max_examples=300, deadline=None)
def test_both_candidate_queries_are_sound(filters):
    """Brute force is the oracle: neither query may hide a covering pair,
    including after a removal re-shuffled the buckets and on populations
    that all share one equality; every anchor is a strict constraint of
    its filter, and removing the survivors empties every bucket."""
    index = CoveringIndex()
    for position, filter_ in enumerate(filters):
        index.add(position, filter_)
    live = dict(enumerate(filters))
    for _ in range(2):
        _assert_anchors_strict(index)
        for probe in filters:
            coverers = index.candidate_positions(probe)
            covered = index.covered_candidate_positions(probe)
            for position, other in live.items():
                if filter_covers(other, probe):
                    assert position in coverers
                if filter_covers(probe, other):
                    assert position in covered
            for positions in (coverers, covered):
                assert set(positions) <= set(live)
        for position in list(live)[::2]:
            index.remove(position)
            del live[position]
    for position in live:
        index.remove(position)
    for name in CoveringIndex.__slots__:
        assert not getattr(index, name), name


def _assert_anchors_strict(index):
    """Every filter is anchored on one of its strict constraints, or on
    ``None`` when it has none."""
    for anchor, filter_, _ in index._filed.values():
        strict = [name for name, c in filter_.constraint_items() if not c.matches_absent()]
        assert anchor in strict if strict else anchor is None


def _assert_queries_sound(index, live):
    """Neither query hides a covering pair among the *live* filters, and
    both answer live positions only, each once."""
    for probe in list(live.values()) + [MatchAll(), F(service="a", location="b")]:
        coverers = index.candidate_positions(probe)
        covered = index.covered_candidate_positions(probe)
        for positions in (coverers, covered):
            assert len(positions) == len(set(positions))
            assert set(positions) <= set(live)
        for position, other in live.items():
            if filter_covers(other, probe):
                assert position in coverers
            if filter_covers(probe, other):
                assert position in covered


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.one_of(random_filter(), shared_equality_filter())),
            st.tuples(st.just("remove"), st.integers(0, 20)),
        ),
        max_size=30,
    )
)
@settings(max_examples=200, deadline=None)
def test_add_remove_interleavings_round_trip(steps):
    """``remove`` files a filter out of the buckets it recomputes from the
    filter and its anchor attribute.  The anchor was picked by the bucket
    loads at ``add`` time, which later adds and removes change, so it has
    to be the recorded one: after any interleaving of adds and removes —
    also of filters that all share one equality next to ``<`` and
    ``between`` constraints — and then the removal of every survivor,
    every slot is empty; at every step both queries are sound and every
    anchor is one of its filter's strict constraints."""
    index = CoveringIndex()
    live = {}
    for position, (kind, argument) in enumerate(steps):
        if kind == "add":
            index.add(position, argument)
            live[position] = argument
        elif live:
            removed = sorted(live)[argument % len(live)]
            index.remove(removed)
            del live[removed]
        _assert_anchors_strict(index)
        _assert_queries_sound(index, live)
    for position in list(live):
        index.remove(position)
        del live[position]
        _assert_queries_sound(index, live)
    for name in CoveringIndex.__slots__:
        assert not getattr(index, name), name
