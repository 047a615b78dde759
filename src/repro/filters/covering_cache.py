"""Memoised covering tests and candidate-pruned cover-set reduction.

The broker hot path (:meth:`repro.broker.base.Broker.refresh_forwarding`)
reduces the registered filters of every neighbour with
:func:`~repro.filters.covering.minimal_cover_set`, an O(n²) sweep of
:func:`~repro.filters.covering.filter_covers` tests.  Routing changes
re-run that sweep over almost exactly the same filters, so nearly all of
the work is recomputation.  This module removes it in two independent
ways:

* :class:`CoveringCache` memoises ``filter_covers`` results keyed by the
  two filters' canonical :meth:`~repro.filters.filter.Filter.key` tuples.
  Covering is a pure function of filter structure, so cached results
  **never need invalidation** — the cache survives arbitrary routing-table
  churn and is safely shared by every broker of a network (each
  :class:`~repro.broker.network.PubSubNetwork` owns one, see
  :class:`~repro.filters.merging.FilterCaches`); its ``misses`` are the
  raw covering tests that network performed.
* :class:`CoveringIndex` buckets potential covering filters by their most
  selective constraint (equality/set values first, then attribute names),
  so that :func:`minimal_cover_set_cached` only tests pairs that could
  possibly be related and skips provably incomparable ones.  It answers
  the opposite question too — which indexed filters can a given filter
  cover — for the delta forwarding state's eviction and stealing steps.

:func:`minimal_cover_set_cached` is result-identical to
:func:`~repro.filters.covering.minimal_cover_set` (same kept filters,
same order, same equivalence tie-breaking); the property tests in
``tests/filters/test_covering_cache.py`` enforce this.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.filters.covering import filter_covers
from repro.filters.filter import Filter, MatchNone
from repro.filters.selectivity import finite_value_keys, pick_anchor


class CoveringCache:
    """Memoise :func:`filter_covers` keyed by canonical filter-key pairs.

    Covering depends only on the two filters' structure, and
    ``Filter.key()`` is a canonical representation of that structure
    (``MatchNone`` has a dedicated key; ``MatchAll`` and the empty filter
    share one and also share covering behaviour).  The cache therefore
    never requires invalidation.  A size cap bounds memory: when the cap
    is reached the cache is simply cleared, trading a one-off warm-up for
    a hard memory ceiling.
    """

    __slots__ = ("_results", "hits", "misses", "evictions", "max_entries")

    def __init__(self, max_entries: int = 1_000_000) -> None:
        self._results: Dict[Tuple[Any, Any], bool] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.max_entries = max_entries

    def covers(self, covering: Filter, covered: Filter) -> bool:
        """Cached equivalent of ``filter_covers(covering, covered)``."""
        key = (covering.key(), covered.key())
        cached = self._results.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        result = filter_covers(covering, covered)
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


class CoveringIndex:
    """Two-way candidate-pruning index over a set of filters.

    **Who covers F?**  Each
    indexed filter is anchored, as a potential *coverer*, under its **most
    selective** finite-valued strict constraint — chosen by the shared
    :func:`~repro.filters.selectivity.pick_anchor` policy, which prefers
    the emptiest value buckets so one equality shared by every filter
    (``service=parking``) stops defeating the pruning — with one bucket
    per accepted value, falling back to its first strict attribute name,
    falling back to a universal list for filters with no strict constraint
    (which may cover anything).

    For a target filter ``F``, :meth:`candidate_positions` returns a
    **sound superset** of the indexed filters that can cover ``F``:

    * a coverer's strict attributes must all be constrained by ``F``, so
      anchoring on a strict attribute never hides a real coverer;
    * a coverer anchored on value buckets accepts a finite value set on
      that attribute, so it can only cover an ``F`` whose constraint there
      is also finite and value-wise contained — in particular ``F``'s
      first accepted value must be in the coverer's bucket.

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
    """

    __slots__ = ("_universal", "_by_attr", "_by_value", "_covered", "_placements")

    def __init__(self) -> None:
        self._universal: List[int] = []
        self._by_attr: Dict[str, List[int]] = {}
        self._by_value: Dict[Tuple[str, Any], List[int]] = {}
        # The covered-side buckets: attribute name -> filters constraining
        # it, (attribute, value key) -> filters whose finite constraint
        # there starts with that value, ``None`` -> MatchNone filters
        # (covered by everything, so part of every answer).
        self._covered: Dict[Any, List[int]] = {}
        # position -> (coverer placement, covered bucket keys), so `remove`
        # can undo `add` even though the anchor choice was load-dependent.
        self._placements: Dict[int, Tuple[Tuple[Any, ...], List[Any]]] = {}

    def add(self, position: int, filter_: Filter) -> None:
        """Index *filter_* under *position*, for both queries."""
        covered_keys: List[Any] = [None] if isinstance(filter_, MatchNone) else []
        for name, constraint in filter_.constraint_items():
            covered_keys.append(name)
            values = finite_value_keys(constraint)
            if values:
                covered_keys.append((name, values[0]))
        for key in covered_keys:
            self._covered.setdefault(key, []).append(position)
        self._placements[position] = (self._add_coverer(position, filter_), covered_keys)

    def _add_coverer(self, position: int, filter_: Filter) -> Tuple[Any, ...]:
        anchor = pick_anchor(filter_, self._bucket_load)
        if anchor is not None:
            anchor_attr, anchor_values = anchor
            for value in anchor_values:
                self._by_value.setdefault((anchor_attr, value), []).append(position)
            return ("value", anchor_attr, anchor_values)
        fallback_attr: Optional[str] = None
        for name, constraint in filter_.constraint_items():
            if constraint.matches_absent():
                continue
            fallback_attr = name
            break
        if fallback_attr is not None:
            self._by_attr.setdefault(fallback_attr, []).append(position)
            return ("attr", fallback_attr)
        self._universal.append(position)
        return ("universal",)

    def remove(self, position: int) -> None:
        """Unindex a previously added *position* (no-op when unknown).

        The one-shot reduction (:func:`minimal_cover_set_cached`) never
        removes; long-lived indexes over a churning set — the delta
        forwarding state's input index — do.
        """
        placed = self._placements.pop(position, None)
        if placed is None:
            return
        placement, covered_keys = placed
        for key in covered_keys:
            bucket = self._covered[key]
            bucket.remove(position)
            if not bucket:
                del self._covered[key]
        if placement[0] == "value":
            _, anchor_attr, anchor_values = placement
            for value in anchor_values:
                bucket = self._by_value[(anchor_attr, value)]
                bucket.remove(position)
                if not bucket:
                    del self._by_value[(anchor_attr, value)]
        elif placement[0] == "attr":
            bucket = self._by_attr[placement[1]]
            bucket.remove(position)
            if not bucket:
                del self._by_attr[placement[1]]
        else:
            self._universal.remove(position)

    def _bucket_load(self, name: str, value: Any) -> int:
        bucket = self._by_value.get((name, value))
        return len(bucket) if bucket else 0

    def candidate_positions(self, filter_: Filter) -> Optional[List[int]]:
        """Positions of indexed filters that might cover *filter_*.

        Returns ``None`` when every indexed filter must be considered
        (``MatchNone`` is covered by everything).
        """
        if isinstance(filter_, MatchNone):
            return None
        out = list(self._universal)
        by_attr = self._by_attr
        by_value = self._by_value
        for name, constraint in filter_.constraint_items():
            bucket = by_attr.get(name)
            if bucket:
                out.extend(bucket)
            values = finite_value_keys(constraint)
            if values:
                value_bucket = by_value.get((name, values[0]))
                if value_bucket:
                    out.extend(value_bucket)
        return out

    def covered_candidate_positions(self, filter_: Filter) -> Optional[List[int]]:
        """Positions of indexed filters that *filter_* might cover.

        Returns ``None`` when every indexed filter must be considered
        (*filter_* has no strict constraint: it covers everything).
        """
        covered = self._covered
        best: Optional[List[List[int]]] = None
        best_load = 0
        for name, constraint in filter_.constraint_items():
            if constraint.matches_absent():
                continue
            values = finite_value_keys(constraint)
            keys: Iterable[Any] = [(name, value) for value in values] if values else (name,)
            buckets = [covered[key] for key in keys if key in covered]
            load = sum(map(len, buckets))
            if best is None or load < best_load:
                best, best_load = buckets, load
        if best is None:
            return None
        out = list(covered.get(None, ()))
        for bucket in best:
            out.extend(bucket)
        return out


def minimal_cover_set_cached(filters: Sequence[Filter], cache: CoveringCache) -> List[Filter]:
    """Result-identical, cached and candidate-pruned ``minimal_cover_set``.

    Same semantics as :func:`repro.filters.covering.minimal_cover_set`: a
    filter is dropped when another (distinct) filter in the set covers it;
    of two equivalent filters the one appearing first is kept; input
    order is preserved.  Covering tests go through *cache* and only
    structurally comparable pairs — per :class:`CoveringIndex` — are
    tested at all.
    """
    count = len(filters)
    if count <= 1:
        return list(filters)
    index = CoveringIndex()
    for position, filter_ in enumerate(filters):
        index.add(position, filter_)
    covers = cache.covers
    kept: List[Filter] = []
    everything = range(count)
    for position, candidate in enumerate(filters):
        candidates = index.candidate_positions(candidate)
        positions: Iterable[int] = everything if candidates is None else candidates
        redundant = False
        for other_position in positions:
            if other_position == position:
                continue
            if covers(filters[other_position], candidate):
                if other_position > position and covers(candidate, filters[other_position]):
                    # Equivalent filters: keep the earlier one (candidate).
                    continue
                redundant = True
                break
        if not redundant:
            kept.append(candidate)
    return kept
