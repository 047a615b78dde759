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

Advertisement-based routing (Section 2.2) asks a weaker question of a
pair of filters: may they overlap?  :func:`filters_may_overlap` answers
it cheaply and incompletely, from equality and set constraints only.
"""

from __future__ import annotations

from typing import Any, Collection, Optional

from repro.filters.constraints import Constraint, Equals, InSet
from repro.filters.filter import Filter, MatchAll, MatchNone


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


def _value_keys(constraint: Constraint) -> Optional[Collection[Any]]:
    """The canonical keys of the values an ``Equals`` / ``InSet`` accepts, else ``None``."""
    if isinstance(constraint, Equals):
        return (constraint.key()[1],)
    if isinstance(constraint, InSet):
        return constraint._by_key
    return None


def filters_may_overlap(left: Filter, right: Filter) -> bool:
    """Return ``False`` only when no notification can match both filters.

    Disjointness is proven in one case alone: the two filters place
    equality / set constraints on a shared attribute that accept no
    common value.  Every other pair may overlap, so the test is sound for
    the advertisement gate but not complete (``x < 3`` and ``x = 5`` are
    said to overlap).  ``MatchNone`` overlaps nothing.
    """
    if isinstance(left, MatchNone) or isinstance(right, MatchNone):
        return False
    for name, constraint in left.constraint_items():
        ours = _value_keys(constraint)
        if ours is None:
            continue
        other = right.constraint_for(name)
        theirs = None if other is None else _value_keys(other)
        if theirs is None:
            continue
        if len(ours) > len(theirs):
            ours, theirs = theirs, ours
        if not any(key in theirs for key in ours):
            return False
    return True
