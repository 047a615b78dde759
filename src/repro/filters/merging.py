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

Brokers re-run :func:`merge_filters` over almost the same filters after
every routing change, so they run it through a :class:`PairMemo` of
:func:`try_merge_pair`: a pair merge is a pure function of the two
filters' structure, so its results (failed merges included) never need
invalidation, and the intermediate filters a greedy run creates recur
between runs and hit the memo too.  Each
:class:`~repro.broker.network.PubSubNetwork` owns one, inside its
:class:`FilterCaches`, beside the memo of the covering test.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from weakref import WeakValueDictionary

from repro.filters.constraints import Between, Constraint, Equals, InSet
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
    callers substitute a memoised covering test (see :class:`FilterCaches`)
    without changing semantics.
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


def merge_filters(
    filters: Sequence[Filter],
    pair_merge: Optional[Callable[[Filter, Filter], Optional[Filter]]] = None,
) -> List[Filter]:
    """Greedily merge a collection of filters.

    Repeatedly merges any pair with a perfect merge until no further merge
    is possible.  The result is a (usually much smaller) list of filters
    whose union of accepted notifications equals the union of the input
    filters.  Input order is preserved as far as possible so that routing
    tables stay stable.  *pair_merge* replaces :func:`try_merge_pair`
    (looked up at call time when omitted) with a result-identical one,
    such as the network's ``FilterCaches.merge_pairs``.

    The loop ends only after a full pass in which no pair merged, and
    :func:`try_merge_pair` merges every pair one side of which covers the
    other.  So no filter of the result covers another: a covering
    reduction of the result would keep all of it.
    """
    if pair_merge is None:
        pair_merge = try_merge_pair
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
                merged = pair_merge(current, working[j])
                if merged is not None:
                    current = merged
                    consumed[j] = True
                    changed = True
            result.append(current)
        working = result
    return working


#: Memo slot marker distinguishing "merge failed (cached ``None``)" from
#: "pair never evaluated".
_ABSENT = object()


class PairMemo:
    """Memoise a pure function of two filters, keyed by their canonical keys.

    ``Filter.key()`` is a canonical representation of a filter's structure
    (``MatchNone`` has a dedicated key; ``MatchAll`` and the empty filter
    share one and also behave alike), so a result never needs
    invalidation.  A size cap bounds memory: when the cap is reached the
    memo is simply cleared, trading a one-off warm-up for a hard memory
    ceiling.  ``misses`` counts the raw runs of *fn*; both directions of a
    pair are distinct keys.
    """

    __slots__ = ("_fn", "_results", "hits", "misses", "evictions", "max_entries")

    def __init__(self, fn: Callable[[Filter, Filter], Any], max_entries: int) -> None:
        self._fn = fn
        self._results: Dict[Tuple[Any, Any], Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.max_entries = max_entries

    def __call__(self, left: Filter, right: Filter) -> Any:
        """Memoised equivalent of ``fn(left, right)``."""
        key = (left.key(), right.key())
        cached = self._results.get(key, _ABSENT)
        if cached is not _ABSENT:
            self.hits += 1
            return cached
        result = self._fn(left, right)
        if len(self._results) >= self.max_entries:
            self._results.clear()
            self.evictions += 1
        self._results[key] = result
        self.misses += 1
        return result

    def stats(self) -> Dict[str, int]:
        """Hit/miss accounting (used by benchmarks and tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._results),
        }

    def __len__(self) -> int:
        return len(self._results)


class FilterCaches:
    """The covering and merge-pair memos and the live-filter table one network shares.

    ``covering`` memoises :func:`~repro.filters.covering.filter_covers`
    and ``merge_pairs`` :func:`try_merge_pair`, whose covering tests go
    through ``covering``; their ``misses`` are the raw covering tests and
    pair merges the network performed.  Both memoise pure functions of two
    filters, so every broker of a
    :class:`~repro.broker.network.PubSubNetwork` can share them — brokers
    on a path test the same filters — while a second network starts cold.

    ``live`` is the network's one copy of each filter: every way a filter
    enters a broker or a client goes through :meth:`intern`, so rows,
    forwarding states, clients and ``_wire`` memos on every hop share one
    object per ``(type, key)`` (the type keeps ``MatchAll`` and
    ``Filter()`` apart).  The logical-mobility layer keeps its movement
    graphs and ``ploc`` instantiations in the same table, under keys of
    its own.  Held weakly: an entry lives as long as something else holds
    its object, so the table pins nothing.
    """

    __slots__ = ("covering", "merge_pairs", "live")

    def __init__(self) -> None:
        self.covering = PairMemo(filter_covers, 1_000_000)
        self.merge_pairs = PairMemo(partial(try_merge_pair, covers=self.covering), 500_000)
        self.live: "WeakValueDictionary[Any, Any]" = WeakValueDictionary()

    def intern(self, filter_: Any) -> Any:
        """The network's live object of *filter_*'s type and key.

        That is *filter_* itself when no equal one is alive; anything with
        a canonical ``key()`` (a :class:`~repro.filters.filter.Filter`, a
        location-dependent filter) can be interned.
        """
        return self.live.setdefault((type(filter_), filter_.key()), filter_)
