"""Shared anchor-selection policy for the filter indexes.

Two structures bucket filters by the values a constraint accepts so that
a query only touches structurally compatible candidates:

* :class:`~repro.filters.covering_cache.CoveringIndex` (covering-candidate
  pruning),
* the counting :class:`~repro.dispatch.predicate_index.PredicateIndex`
  (which indexes *every* constraint and therefore needs no anchor, but
  reuses :func:`finite_value_keys` for its equality buckets).

The first must pick **one** constraint per filter to bucket it under.
Picking the first (or the lexicographically smallest) attribute defeats
the index on workloads dominated by one shared equality — every
``service=parking`` filter lands in the same bucket and the scan is back.
:func:`pick_anchor` instead picks the *most selective* anchor: the
finite-valued constraint whose current buckets hold the fewest existing
filters, breaking ties toward fewer accepted values and then the smaller
attribute name (so the policy stays deterministic and, on empty indexes,
identical to the old lexicographic rule for pure-equality filters).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.filters.attributes import canonical_key, try_compare
from repro.filters.constraints import Between, Constraint, Equals, InSet
from repro.filters.filter import Filter


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


def pick_anchor(
    filter_: Filter, bucket_load: Callable[[str, Any], int]
) -> Optional[Tuple[str, Tuple[Any, ...]]]:
    """Choose the most selective finite-valued constraint to index *filter_* under.

    ``bucket_load(attribute, value_key)`` must return how many filters the
    index currently holds in that value bucket.  Returns ``(attribute,
    value_keys)`` for the chosen anchor, or ``None`` when the filter has no
    finite-valued, presence-requiring constraint (callers fall back to an
    attribute bucket or a scan list).

    Ranking: smallest current bucket occupancy first (a bucket shared by
    every filter prunes nothing), then fewest accepted values, then the
    lexicographically smallest attribute name for determinism.
    """
    best_rank: Optional[Tuple[int, int, str]] = None
    best: Optional[Tuple[str, Tuple[Any, ...]]] = None
    for name, constraint in filter_.constraint_items():
        if constraint.matches_absent():
            continue
        values = finite_value_keys(constraint)
        if not values:
            continue
        load = 0
        for value in values:
            load += bucket_load(name, value)
        rank = (load, len(values), name)
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best = (name, values)
    return best
