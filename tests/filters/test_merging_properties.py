"""Seeded property tests for merge soundness.

The load-bearing invariant of perfect merging (paper §2.2): a successful
merge accepts **exactly the union** of its two sides — over-acceptance
would silently widen routing tables (extra traffic), under-acceptance
would drop notifications (a correctness bug).  These properties pin that
at the constraint level (:func:`repro.filters.merging._merge_constraints`),
the filter level (:func:`repro.filters.merging.try_merge_pair`) and the
set level (:func:`repro.filters.merging.merge_filters`), where no two
results may cover each other either.

Greedy set merging is **order-dependent** in which partition it picks
(documented and pinned below) but never in the accepted union.
"""

from hypothesis import example, given, settings, strategies as st

from repro.filters.constraints import (
    AnyValue,
    Between,
    Equals,
    Exists,
    GreaterEqual,
    GreaterThan,
    InSet,
    LessEqual,
    LessThan,
    NotEquals,
    Prefix,
)
from repro.filters.covering import filter_covers
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.filters.merging import FilterCaches, _merge_constraints, merge_filters, try_merge_pair

# ---------------------------------------------------------------------------
# Generators: constraints, filters, and the sample values/events used to
# approximate "accepts exactly the union".  The sample pool deliberately
# includes interval boundaries, half-steps (inclusivity edges), strings
# sharing prefixes, and values outside every generated constraint.
# ---------------------------------------------------------------------------

SAMPLE_VALUES = (
    [x / 2 for x in range(-2, 25)]
    + ["a", "b", "c", "d", "e", "ab", "abc", "z", ""]
    + [True, False]
)

numeric = st.integers(min_value=0, max_value=10)
strings = st.sampled_from(["a", "b", "c", "d", "ab", "abc"])


def constraints():
    return st.one_of(
        st.builds(Equals, st.one_of(numeric, strings)),
        st.builds(NotEquals, st.one_of(numeric, strings)),
        st.builds(InSet, st.lists(st.one_of(numeric, strings), min_size=1, max_size=4)),
        st.builds(LessThan, numeric),
        st.builds(LessEqual, numeric),
        st.builds(GreaterThan, numeric),
        st.builds(GreaterEqual, numeric),
        st.builds(
            Between,
            st.integers(0, 5),
            st.integers(5, 10),
            low_inclusive=st.booleans(),
            high_inclusive=st.booleans(),
        ),
        st.builds(Prefix, st.sampled_from(["a", "ab", "b"])),
        st.just(AnyValue()),
        st.just(Exists()),
    )


ATTRIBUTES = ["service", "location", "cost"]


def filters():
    single = st.dictionaries(
        st.sampled_from(ATTRIBUTES), constraints(), min_size=0, max_size=3
    ).map(Filter)
    return st.one_of(single, st.just(MatchAll()), st.just(MatchNone()))


def events():
    """Notification attribute dicts, including absent attributes."""
    return st.dictionaries(
        st.sampled_from(ATTRIBUTES), st.sampled_from(SAMPLE_VALUES), max_size=3
    )


# ---------------------------------------------------------------------------
# Constraint level
# ---------------------------------------------------------------------------


@given(constraints(), constraints())
# An empty half-open interval must not lend its closed bound to the union
# (the merge used to return Between(5, 6) closed at 5, accepting 5.0).
@example(Between(5, 6, low_inclusive=False), Between(5, 5, high_inclusive=False))
@example(Between(5, 5, low_inclusive=False), Between(4, 5, high_inclusive=False))
@settings(max_examples=400, deadline=None)
def test_merge_constraints_accepts_exactly_the_union(left, right):
    """A successful ``_merge_constraints`` is the exact union of both sides."""
    merged = _merge_constraints(left, right)
    if merged is None:
        return
    for value in SAMPLE_VALUES:
        expected = left.matches(value) or right.matches(value)
        assert merged.matches(value) == expected, (
            "merged {} of {} and {} disagrees on {!r}".format(merged, left, right, value)
        )
    assert merged.matches_absent() == (left.matches_absent() or right.matches_absent())


# ---------------------------------------------------------------------------
# Filter level
# ---------------------------------------------------------------------------


@given(filters(), filters(), st.lists(events(), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_try_merge_pair_accepts_exactly_the_union(left, right, samples):
    """A perfect pair merge neither over- nor under-accepts."""
    merged = try_merge_pair(left, right)
    if merged is None:
        return
    for sample in samples:
        expected = left.matches(sample) or right.matches(sample)
        assert merged.matches(sample) == expected


@given(st.lists(filters(), max_size=10), st.lists(events(), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_merge_filters_preserves_the_union(filter_list, samples):
    """The greedy set merge accepts exactly what the inputs accept, and no
    two of its results cover each other — run on the raw pair merge and
    through a network's pair memo."""
    for pair_merge in (try_merge_pair, FilterCaches().merge_pairs):
        merged = merge_filters(filter_list, pair_merge)
        for sample in samples:
            expected = any(f.matches(sample) for f in filter_list)
            assert any(f.matches(sample) for f in merged) == expected
        # And every input is covered by some merged filter (routing soundness):
        # a notification matched by an input must reach the merged cover.
        for original in filter_list:
            if isinstance(original, MatchNone):
                continue
            assert any(filter_covers(kept, original) for kept in merged)
        # So a covering reduction of the result keeps all of it: the broker's
        # merging mode forwards the merge products as they are.
        for index, kept in enumerate(merged):
            for other in merged[index + 1 :]:
                assert not filter_covers(kept, other) and not filter_covers(other, kept)


# ---------------------------------------------------------------------------
# Order dependence: documented and pinned.
#
# Greedy merging commits to the first mergeable pair it meets, and a merge
# can change *which* attribute is "the one differing attribute" for later
# pairs.  The canonical example: A={x:1,y:1}, B={x:2,y:1}, C={x:2,y:2}.
# Scanning [A, B, C] merges A+B on x first (then AB and C differ in both
# x and y), while scanning [B, C, A] merges B+C on y first (then BC and A
# differ in both).  The resulting *partitions* differ; the accepted union
# is identical either way.  This is why the broker's merging mode
# (repro.broker.forwarding) must merge its inputs in the exact canonical
# order the from-scratch reduction sees.
# ---------------------------------------------------------------------------


def test_merge_filters_order_dependence_is_pinned():
    a = Filter({"x": 1, "y": 1})
    b = Filter({"x": 2, "y": 1})
    c = Filter({"x": 2, "y": 2})

    first = merge_filters([a, b, c])
    second = merge_filters([b, c, a])

    assert {f.key() for f in first} == {
        Filter({"x": ("in", (1, 2)), "y": 1}).key(),
        c.key(),
    }
    assert {f.key() for f in second} == {
        Filter({"x": 2, "y": ("in", (1, 2))}).key(),
        a.key(),
    }
    assert {f.key() for f in first} != {f.key() for f in second}

    # ... but the union is order-independent.
    samples = [
        {"x": x, "y": y} for x in (1, 2, 3) for y in (1, 2, 3)
    ]
    for sample in samples:
        expected = any(f.matches(sample) for f in (a, b, c))
        assert any(f.matches(sample) for f in first) == expected
        assert any(f.matches(sample) for f in second) == expected
