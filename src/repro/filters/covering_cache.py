"""Candidate-pruned covering questions.

Section 2.2's covering-based routing asks the same question over and over:
does one filter cover another?  Each neighbour's delta forwarding state
(:class:`repro.broker.forwarding.NeighbourForwardingState`) asks who
covers a filter and whom it covers every time it places or unplaces an
input.  :class:`CoveringIndex` buckets the inputs by the one strict
constraint the fewest covering questions look at, so that a question only
tests the filters that could really cover the given one and skips provably
incomparable ones.  It answers the opposite question too — which indexed
filters can a given filter cover — for the delta forwarding state's
eviction and take-over steps.  The state asks the covering test of its
answers through the network's memo
(:class:`~repro.filters.merging.FilterCaches`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.filters.filter import Filter
from repro.filters.selectivity import Profile, covering_profile


class CoveringIndex:
    """Two-way candidate-pruning index over a set of filters.

    Both queries rest on two facts about conjunctive filters: ``C`` covers
    ``F`` only if (1) ``F`` constrains every *strict* attribute of ``C``
    (one an absent attribute does not satisfy), and (2) where ``C``'s
    constraint is finite, ``F``'s is finite too and accepts a subset of its
    values (see :mod:`repro.filters.selectivity`, whose memoised
    :func:`~repro.filters.selectivity.covering_profile` every step reads).

    **Who covers F?**  Each indexed filter is anchored, as a potential
    *coverer*, under one of its strict constraints: a finite one in one
    value bucket per accepted value, any other in its attribute's bucket;
    a filter with no strict constraint (it may cover anything) sits in the
    ``None`` attribute bucket.  For a target ``F``,
    :meth:`candidate_positions` returns a **sound superset** of the
    indexed filters that can cover it: the ``None`` bucket, the attribute
    bucket of every attribute ``F`` constrains and, per finite constraint
    of ``F``, the smallest of the value buckets of all its values — a
    coverer anchored there accepts every one of them, so it sits in each
    of those buckets, and an empty one means there is none.

    The anchor is the strict constraint whose buckets the fewest targets
    look at: the one whose *covered-side* buckets (below) are smallest,
    a finite constraint ranked by the largest of its values' buckets, any
    other by its attribute's bucket.  A ``service = parking`` equality
    shared by the whole population is looked at by every query, so once
    the population grows no filter anchors there, and a query tests only
    the filters that could really answer yes.  Ties go to a finite
    constraint, then to fewer values, then to the smaller attribute name.

    **Whom does F cover?**  The same two facts read the other way round:
    ``F`` covers ``G`` only if ``G`` constrains every strict attribute of
    ``F``, and where ``F``'s constraint is finite ``G``'s is finite too
    with its first accepted value among ``F``'s.  So each filter is also
    filed, as potentially *covered*, under every attribute name it
    constrains and under the first value of each of its finite
    constraints, and :meth:`covered_candidate_positions` answers from
    whichever strict constraint of ``F`` has the least-loaded buckets.
    Any one strict constraint is a necessary condition, so picking the
    emptiest is sound; only an ``F`` without strict constraints (it covers
    everything) still means "all positions".

    Per position the index keeps the anchor attribute (the one
    load-dependent choice), the filter and the caller's item for it;
    :meth:`remove` recomputes every bucket key from the first two.

    ``MatchNone`` is neither indexed nor asked about: it would be covered
    by everything, and the forwarding state, the index's one caller,
    leaves its rows out of every input.
    """

    __slots__ = ("_by_attr", "_by_value", "_covered", "_filed")

    def __init__(self) -> None:
        # The coverer-side buckets: anchor attribute of a non-finite
        # anchor (``None``: no strict constraint) -> filters, (anchor
        # attribute, value key) -> filters accepting that value there.
        self._by_attr: Dict[Optional[str], List[int]] = {}
        self._by_value: Dict[Tuple[str, Any], List[int]] = {}
        # The covered-side buckets: attribute name -> filters constraining
        # it, (attribute, value key) -> filters whose finite constraint
        # there starts with that value.
        self._covered: Dict[Any, List[int]] = {}
        #: position -> (anchor attribute or ``None``, filter, item).
        self._filed: Dict[int, Tuple[Optional[str], Filter, Any]] = {}

    def add(self, position: int, filter_: Filter, item: Any = None) -> None:
        """Index *filter_* under *position*, for both queries.

        *item* is what :meth:`items_at` returns for the position.
        """
        profile = covering_profile(filter_)
        anchor = self._anchor(profile)
        for buckets, key in self._buckets(filter_, profile, anchor):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [position]
            else:
                bucket.append(position)
        self._filed[position] = (anchor, filter_, item)

    def remove(self, position: int) -> None:
        """Unindex a previously added *position* (no-op when unknown)."""
        filed = self._filed.pop(position, None)
        if filed is None:
            return
        anchor, filter_, _ = filed
        for buckets, key in self._buckets(filter_, covering_profile(filter_), anchor):
            bucket = buckets[key]
            bucket.remove(position)
            if not bucket:
                del buckets[key]

    def _anchor(self, profile: Profile) -> Optional[str]:
        """The attribute of the strict constraint whose covered-side buckets are smallest."""
        covered = self._covered
        best: Optional[str] = None
        best_rank: Optional[Tuple[int, int, int, str]] = None
        for name, values, strict in profile:
            if not strict:
                continue
            if values:
                load = 0
                for value in values:
                    bucket = covered.get((name, value))
                    if bucket and len(bucket) > load:
                        load = len(bucket)
                rank = (load, 0, len(values), name)
            else:
                rank = (len(covered.get(name, ())), 1, 0, name)
            if best_rank is None or rank < best_rank:
                best, best_rank = name, rank
        return best

    def _buckets(
        self, filter_: Filter, profile: Profile, anchor: Optional[str]
    ) -> Iterator[Tuple[Dict[Any, List[int]], Any]]:
        """Every (bucket dict, key) *filter_* is filed under when anchored at *anchor*."""
        covered = self._covered
        for name, values, _ in profile:
            yield covered, name
            if values:
                yield covered, (name, values[0])
            if name == anchor:
                if values:
                    for value in values:
                        yield self._by_value, (name, value)
                else:
                    yield self._by_attr, name
        if anchor is None:
            yield self._by_attr, None

    def items_at(self, positions: List[int]) -> List[Any]:
        """The items indexed under *positions*, in ascending position."""
        filed = self._filed
        if len(positions) > 1:
            positions = sorted(positions)
        return [filed[position][2] for position in positions]

    def candidate_positions(self, filter_: Filter) -> List[int]:
        """Positions of indexed filters that might cover *filter_*."""
        by_attr = self._by_attr
        by_value = self._by_value
        out = list(by_attr.get(None, ()))
        for name, values, _ in covering_profile(filter_):
            bucket = by_attr.get(name)
            if bucket:
                out.extend(bucket)
            if values:
                # A coverer anchored here sits in the bucket of every value.
                smallest = None
                for value in values:
                    bucket = by_value.get((name, value))
                    if not bucket:
                        smallest = None
                        break
                    if smallest is None or len(bucket) < len(smallest):
                        smallest = bucket
                if smallest:
                    out.extend(smallest)
        return out

    def covered_candidate_positions(self, filter_: Filter) -> List[int]:
        """Positions of indexed filters that *filter_* might cover.

        Every position when *filter_* has no strict constraint (it covers
        everything).
        """
        covered = self._covered
        best: Optional[List[List[int]]] = None
        best_load = 0
        for name, values, strict in covering_profile(filter_):
            if not strict:
                continue
            keys: Iterable[Any] = [(name, value) for value in values] if values else (name,)
            buckets = [covered[key] for key in keys if key in covered]
            load = sum(map(len, buckets))
            if best is None or load < best_load:
                best, best_load = buckets, load
        if best is None:
            return list(self._filed)
        out: List[int] = []
        for bucket in best:
            out.extend(bucket)
        return out

