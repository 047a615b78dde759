"""What the covering index needs to know about a filter's constraints.

:class:`~repro.filters.covering_cache.CoveringIndex` files filters by the
values their constraints accept, so that a covering question only tests
structurally comparable filters.  Two facts per constraint decide where a
filter goes and where a query looks:

* whether the constraint is *strict* — an absent attribute does not
  satisfy it, so a filter covered by this one must constrain the
  attribute too;
* whether it accepts a *finite* set of values (:func:`finite_value_keys`),
  so a constraint it covers is finite as well and accepts a subset.

:func:`covering_profile` computes both once per filter and memoises them
on the immutable :class:`~repro.filters.filter.Filter`, so adding,
removing and querying never classify a constraint twice.  Which of a
filter's strict constraints anchors it is the index's one load-dependent
choice and lives with the index.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.filters.attributes import canonical_key, try_compare
from repro.filters.constraints import Between, Constraint, Equals, InSet
from repro.filters.filter import Filter

#: Per constraint: ``(attribute, finite value keys or None, strict)``.
Profile = Tuple[Tuple[str, Optional[Tuple[Any, ...]], bool], ...]


def finite_value_keys(constraint: Constraint) -> Optional[Tuple[Any, ...]]:
    """Canonical keys of the constraint's accepted values, when finite.

    Returns ``None`` for constraints accepting unboundedly many values
    (ranges, prefixes, ``any``/``exists``...).  A filter whose constraint
    on some attribute is *finite* can only be covered, on that attribute,
    by a constraint accepting a superset of those values; conversely a
    finite constraint can never cover an infinite one.  Both directions
    are what makes value-bucketed candidate pruning sound.
    """
    if isinstance(constraint, Equals):
        return (canonical_key(constraint.value),)
    if isinstance(constraint, InSet):
        # The key's sorted canonical keys: equal constraints answer alike,
        # however their values were listed.
        return constraint.key()[1]
    if isinstance(constraint, Between):
        # Any zero-width interval accepts at most {low} — including the
        # half-open ones (which accept nothing).  They must be classified
        # finite: ``Between.covers`` lets a closed [x, x] cover a half-open
        # [x, x), so a half-open target still needs to find value-bucketed
        # coverers anchored at x.
        ok, sign = try_compare(constraint.low, constraint.high)
        if ok and sign == 0:
            return (canonical_key(constraint.low),)
    return None


def covering_profile(filter_: Filter) -> Profile:
    """``(attribute, finite value keys or None, strict)`` per constraint of *filter_*.

    Computed on first use and kept on the filter; a finite constraint is
    always strict.
    """
    profile = filter_._profile
    if profile is None:
        profile = filter_._profile = tuple(
            (name, finite_value_keys(constraint), not constraint.matches_absent())
            for name, constraint in filter_.constraint_items()
        )
    return profile
