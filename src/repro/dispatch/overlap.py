"""The advertisement gate's index: which filters a neighbour may be sent.

Section 2.2 forwards a subscription only toward a neighbour that
advertised notifications overlapping it.  Each
:class:`~repro.broker.forwarding.NeighbourForwardingState` holds one
:class:`AdvertisementOverlapIndex` over the advertisement rows received
from its neighbour, and ``SubscriptionForwarding.may_forward`` asks it
when its verdict memo misses.  The specification is a linear
:func:`~tests.oracles.matching.filters_overlap_hint` loop over those rows
in ``tests/oracles/matching.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from repro.filters.constraints import Constraint, Equals, InSet
from repro.filters.filter import Filter, MatchNone


def _overlap_value_keys(constraint: Constraint) -> Optional[Tuple[Any, ...]]:
    """The finite value keys :func:`tests.oracles.matching.filters_overlap_hint` reasons about.

    Deliberately narrower than
    :func:`repro.filters.selectivity.finite_value_keys`: the overlap hint
    only derives disjointness from :class:`Equals` and :class:`InSet`
    constraints (never from degenerate intervals), and the index must
    prove disjointness in exactly the same cases to stay verdict-identical.
    """
    if isinstance(constraint, Equals):
        return (constraint.key()[1],)
    if isinstance(constraint, InSet):
        return tuple(constraint._by_key)
    return None


class AdvertisementOverlapIndex:
    """Advertisements of one neighbour, indexed for overlap queries.

    ``any_overlap(F)`` returns whether at least one indexed advertisement
    overlaps ``F`` according to
    :func:`tests.oracles.matching.filters_overlap_hint`: an advertisement
    is *disjoint* from ``F`` exactly when the two place equality/set
    constraints on a shared attribute with no common accepted value.
    """

    __slots__ = ("_ads", "_finite", "_values")

    def __init__(self) -> None:
        # keys of all indexed (non-MatchNone) advertisements
        self._ads: Set[Any] = set()
        # attribute -> set of ad keys with a finite constraint on it
        self._finite: Dict[str, Set[Any]] = {}
        # (attribute, value key) -> set of ad keys accepting that value
        self._values: Dict[Tuple[str, Any], Set[Any]] = {}

    def __len__(self) -> int:
        return len(self._ads)

    def add(self, filter_: Filter) -> None:
        """Index one advertisement row's filter."""
        if isinstance(filter_, MatchNone):
            return  # MatchNone overlaps nothing; keep it out of the totals
        key = filter_.key()
        for name, constraint in filter_.constraint_items():
            value_keys = _overlap_value_keys(constraint)
            if value_keys is None:
                continue
            self._finite.setdefault(name, set()).add(key)
            for value_key in value_keys:
                self._values.setdefault((name, value_key), set()).add(key)
        self._ads.add(key)
        # Rows are unique per (filter, destination), so no refcounting.

    def remove(self, filter_: Filter) -> None:
        """Unindex one advertisement row's filter."""
        if isinstance(filter_, MatchNone):
            return
        key = filter_.key()
        if key not in self._ads:
            return
        self._ads.discard(key)
        for name, constraint in filter_.constraint_items():
            value_keys = _overlap_value_keys(constraint)
            if value_keys is None:
                continue
            bucket = self._finite.get(name)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._finite[name]
            for value_key in value_keys:
                values = self._values.get((name, value_key))
                if values is not None:
                    values.discard(key)
                    if not values:
                        del self._values[(name, value_key)]

    def any_overlap(self, filter_: Filter) -> bool:
        """``True`` when some indexed advertisement may overlap *filter_*."""
        total = len(self._ads)
        if total == 0 or isinstance(filter_, MatchNone):
            return False
        disqualified: Optional[Set[Any]] = None
        for name, constraint in filter_.constraint_items():
            value_keys = _overlap_value_keys(constraint)
            if value_keys is None:
                continue
            finite_here = self._finite.get(name)
            if not finite_here:
                continue
            compatible: Set[Any] = set()
            for value_key in value_keys:
                bucket = self._values.get((name, value_key))
                if bucket:
                    compatible |= bucket
            if len(compatible) == len(finite_here):
                continue  # every finite-constrained ad shares a value here
            if disqualified is None:
                disqualified = finite_here - compatible
            else:
                disqualified |= finite_here - compatible
            if len(disqualified) == total:
                return False
        return disqualified is None or len(disqualified) < total
