"""Filter merging.

Merging-based routing (Section 2.2 of the paper, following Mühl's
"Generic constraints for content-based publish/subscribe systems") creates
new filters that *cover* a set of existing filters so that only the merged
filter needs to be forwarded to neighbour brokers.

We implement **perfect merging** for the common case exploited by the
mobility algorithms: two filters that are identical except for a single
attribute can be merged by taking the union of that attribute's accepted
values (when the union is representable by one of our constraint types).
This is exactly the situation produced by location-dependent
subscriptions, whose per-hop filters differ only in the ``location ∈
ploc(x, q)`` constraint.

We additionally provide an **imperfect merge** helper that simply widens
the differing attribute to "any value"; imperfect merges trade extra
notification traffic for smaller routing tables, as discussed in the
Rebeca routing evaluation the paper cites [21].
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.filters.constraints import AnyValue, Between, Constraint, Equals, InSet
from repro.filters.covering import filter_covers
from repro.filters.filter import Filter, MatchNone
from repro.filters.attributes import try_compare


def _merge_constraints(left: Constraint, right: Constraint) -> Optional[Constraint]:
    """Try to produce a single constraint accepting exactly the union.

    Returns ``None`` when no perfect single-constraint representation of
    the union exists in our constraint language.
    """
    # Identical constraints merge trivially.
    if left == right:
        return left

    # One side covers the other: the covering side is the perfect merge.
    if left.covers(right):
        return left
    if right.covers(left):
        return right

    # Equality / set constraints merge into a set union.
    if isinstance(left, (Equals, InSet)) and isinstance(right, (Equals, InSet)):
        left_values = (left.value,) if isinstance(left, Equals) else left.values
        right_values = (right.value,) if isinstance(right, Equals) else right.values
        return InSet(tuple(left_values) + tuple(right_values))

    # Overlapping or adjacent closed intervals merge into one interval.
    if isinstance(left, Between) and isinstance(right, Between):
        return _merge_intervals(left, right)

    # Two one-sided bounds in the same direction: the looser one covers the
    # other and was handled above; opposite directions that overlap cover
    # everything comparable -- not representable without a type constraint,
    # so decline.
    return None


def _merge_intervals(left: Between, right: Between) -> Optional[Between]:
    """Merge two intervals when their union is a single interval."""
    # A zero-width interval with an exclusive bound accepts nothing (its
    # closed bound is not a member either): the union is the other side.
    for empty, other in ((left, right), (right, left)):
        if empty.low == empty.high and not empty.is_degenerate():
            return other
    ok, sign = try_compare(left.low, right.low)
    if not ok:
        return None
    first, second = (left, right) if sign <= 0 else (right, left)
    # The union is an interval iff the two overlap or touch at a bound that
    # is inclusive on at least one side.
    ok, gap_sign = try_compare(second.low, first.high)
    if not ok:
        return None
    if gap_sign > 0:
        return None
    if gap_sign == 0 and not (first.high_inclusive or second.low_inclusive):
        return None
    ok, high_sign = try_compare(second.high, first.high)
    if not ok:
        return None
    if high_sign > 0:
        high, high_inclusive = second.high, second.high_inclusive
    elif high_sign < 0:
        high, high_inclusive = first.high, first.high_inclusive
    else:
        high, high_inclusive = first.high, first.high_inclusive or second.high_inclusive
    ok, low_sign = try_compare(first.low, second.low)
    low_inclusive = first.low_inclusive if low_sign != 0 else (
        first.low_inclusive or second.low_inclusive
    )
    return Between(first.low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive)


def try_merge_pair(left: Filter, right: Filter, covers=filter_covers) -> Optional[Filter]:
    """Perfectly merge two filters when possible.

    A perfect merge exists when:

    * one filter covers the other (the covering one is returned), or
    * the filters constrain exactly the same attributes and differ on at
      most one of them, and that attribute's constraints have a perfect
      single-constraint union.

    Returns ``None`` when no perfect merge is found.  *covers* lets
    callers substitute a memoised covering test (see
    :class:`repro.filters.covering_cache.CoveringCache`) without changing
    semantics.
    """
    if isinstance(left, MatchNone):
        return right
    if isinstance(right, MatchNone):
        return left
    if covers(left, right):
        return left
    if covers(right, left):
        return right

    left_names = set(left.attribute_names())
    right_names = set(right.attribute_names())
    if left_names != right_names:
        return None

    differing = [
        name
        for name in left_names
        if left.constraint_for(name) != right.constraint_for(name)
    ]
    if len(differing) != 1:
        return None
    name = differing[0]
    merged_constraint = _merge_constraints(
        left.constraint_for(name), right.constraint_for(name)  # type: ignore[arg-type]
    )
    if merged_constraint is None:
        return None
    return left.with_constraint(name, merged_constraint)


def merge_filters(filters: Sequence[Filter], covers=filter_covers) -> List[Filter]:
    """Greedily merge a collection of filters.

    Repeatedly merges any pair with a perfect merge until no further merge
    is possible.  The result is a (usually much smaller) list of filters
    whose union of accepted notifications equals the union of the input
    filters.  Input order is preserved as far as possible so that routing
    tables stay stable.  *covers* is forwarded to
    :func:`try_merge_pair` so the covering-heavy part of merging can run
    against a shared memoised test.
    """
    working: List[Filter] = [f for f in filters if not isinstance(f, MatchNone)]
    if not working:
        return []
    changed = True
    while changed:
        changed = False
        result: List[Filter] = []
        consumed = [False] * len(working)
        for i, candidate in enumerate(working):
            if consumed[i]:
                continue
            current = candidate
            for j in range(i + 1, len(working)):
                if consumed[j]:
                    continue
                merged = try_merge_pair(current, working[j], covers=covers)
                if merged is not None:
                    current = merged
                    consumed[j] = True
                    changed = True
            result.append(current)
        working = result
    return working


def imperfect_merge(filters: Sequence[Filter], attribute: str) -> Optional[Filter]:
    """Widen *attribute* to "any value" across structurally similar filters.

    All filters must constrain the same attribute set.  The result covers
    every input filter but may also accept notifications none of them
    accepts (an *imperfect* merge).  Returns ``None`` when the inputs do
    not share an attribute set or differ on more than the widened
    attribute.
    """
    concrete = [f for f in filters if not isinstance(f, MatchNone)]
    if not concrete:
        return None
    names = set(concrete[0].attribute_names())
    for f in concrete[1:]:
        if set(f.attribute_names()) != names:
            return None
    if attribute not in names:
        return None
    base = concrete[0]
    for f in concrete[1:]:
        for name in names:
            if name == attribute:
                continue
            if f.constraint_for(name) != base.constraint_for(name):
                return None
    return base.with_constraint(attribute, AnyValue())
