"""Covering relation between filters.

Covering-based routing (Section 2.2 of the paper) "tests whether a filter
F1 accepts a superset of notifications of a second filter F2, and in this
case replaces all occurrences of F2 assigned to the same link in the
routing table".  This module provides the filter-level covering test on
top of the constraint-level tests defined in
:mod:`repro.filters.constraints`.

Covering for conjunctive filters: ``F1 covers F2`` iff for every attribute
constrained by ``F1`` there is a constraint in ``F2`` on the same
attribute that is covered by ``F1``'s constraint.  Attributes constrained
only by ``F2`` make ``F2`` more selective and therefore do not affect the
result.  The test is sound and complete for this conjunctive model, up to
the completeness of the pairwise constraint tests.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.filters.constraints import Constraint, Equals, InSet
from repro.filters.filter import Filter, MatchAll, MatchNone


def constraint_covers(covering: Constraint, covered: Constraint) -> bool:
    """Constraint-level covering: does *covering* accept a superset of *covered*?"""
    return covering.covers(covered)


def filter_covers(covering: Filter, covered: Filter) -> bool:
    """Return ``True`` when *covering* accepts a superset of *covered*.

    ``MatchAll`` covers everything; ``MatchNone`` is covered by everything
    and covers only ``MatchNone``.
    """
    if isinstance(covered, MatchNone):
        return True
    if isinstance(covering, MatchNone):
        return False
    if isinstance(covering, MatchAll) or covering.is_empty():
        return True
    if isinstance(covered, MatchAll) or covered.is_empty():
        # A constrained filter can never cover the universal filter.
        return False
    for name, covering_constraint in covering.constraint_items():
        covered_constraint = covered.constraint_for(name)
        if covered_constraint is None:
            # ``covered`` places no restriction on this attribute, so it
            # accepts notifications (any value, or absent attribute) that
            # ``covering`` would reject -- unless the covering constraint
            # itself accepts everything.
            if not covering_constraint.matches_absent():
                return False
            continue
        if not covering_constraint.covers(covered_constraint):
            return False
    return True


def filters_overlap_hint(left: Filter, right: Filter) -> bool:
    """A cheap, *incomplete* overlap test.

    Returns ``False`` only when the two filters provably cannot both match
    any notification (because they place incompatible equality/set
    constraints on a shared attribute).  Returns ``True`` otherwise.  Used
    by merging heuristics and diagnostics; never relied on for
    correctness.
    """
    if isinstance(left, MatchNone) or isinstance(right, MatchNone):
        return False
    for name, left_constraint in left.constraint_items():
        right_constraint = right.constraint_for(name)
        if right_constraint is None:
            continue
        # Work on the constraint objects directly: ``key()`` rebuilds a
        # sorted tuple (and the ``in`` branches used to build fresh sets)
        # on every call, which made the hint allocate on the hot eq/eq
        # path.  ``Constraint.matches`` reuses each InSet's canonical key
        # dictionary, so every branch below is allocation-free.
        left_is_eq = isinstance(left_constraint, Equals)
        right_is_eq = isinstance(right_constraint, Equals)
        if left_is_eq and right_is_eq:
            if not right_constraint.matches(left_constraint.value):
                return False
        elif left_is_eq and isinstance(right_constraint, InSet):
            if not right_constraint.matches(left_constraint.value):
                return False
        elif isinstance(left_constraint, InSet):
            if right_is_eq:
                if not left_constraint.matches(right_constraint.value):
                    return False
            elif isinstance(right_constraint, InSet):
                small, large = left_constraint, right_constraint
                if len(small._by_key) > len(large._by_key):
                    small, large = large, small
                if not any(key in large._by_key for key in small._by_key):
                    return False
    return True


def minimal_cover_set(filters: Sequence[Filter]) -> List[Filter]:
    """Reduce a set of filters to a minimal subset with the same union.

    A filter is dropped when another (distinct) filter in the set covers
    it.  When two filters cover each other (they are equivalent), the one
    appearing first is kept.  The result preserves input order.
    """
    kept: List[Filter] = []
    for index, candidate in enumerate(filters):
        redundant = False
        for other_index, other in enumerate(filters):
            if other_index == index:
                continue
            if filter_covers(other, candidate):
                mutual = filter_covers(candidate, other)
                if mutual and other_index > index:
                    # Equivalent filters: keep the earlier one (candidate).
                    continue
                redundant = True
                break
        if not redundant:
            kept.append(candidate)
    return kept
