"""Per-broker compiled dispatch plan.

A :class:`DispatchPlan` is the broker's notification data plane: it owns a
:class:`~repro.dispatch.predicate_index.PredicateIndex` over the
subscription routing table and one :class:`AdvertisementOverlapIndex` per
neighbour over the advertisement table, and keeps both **incrementally**
in sync through the tables' row-level delta listeners
(:meth:`repro.routing.table.RoutingTable.add_delta_listener`) — no table
rescan on churn.  A whole-table change (``clear``) only marks the plan
invalid; it is rebuilt lazily from the table on its next use, which is
also the oracle path the equivalence tests drive directly.

:meth:`DispatchPlan.match` answers the forwarding question (which
neighbours) and the local-delivery question (which rows) in a single
counting pass returning the matched routing rows; the broker derives
both answers from it.  The index holds each distinct filter once, under
a fid; the plan keeps the filter's rows as one tuple, ``fid_rows[fid]``,
which is also the filter's reference count, and a match extends the
answer from those tuples directly.  :meth:`DispatchPlan.advertised_via`
answers the subscription-forwarding gate with a value-bucketed
disjointness test that returns the **same verdict** as a linear
:func:`~tests.oracles.matching.filters_overlap_hint` loop over the
neighbour's advertisement rows (the hint only proves disjointness through
incompatible equality/set constraints on a shared attribute, which is
exactly what the buckets can decide).  Both specifications live in
``tests/oracles/matching.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.dispatch.counting import BitsetMatcher
from repro.dispatch.predicate_index import PredicateIndex
from repro.dispatch.stats import DispatchStats
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


class _SubscriptionDeltaListener:
    """Row-delta adapter feeding the plan's predicate index."""

    __slots__ = ("plan",)

    def __init__(self, plan: "DispatchPlan") -> None:
        self.plan = plan

    def row_subject_added(self, row, subject: str, created_row: bool) -> None:
        if created_row:
            self.plan._subscription_row_added(row)

    def row_subjects_removed(self, row, subjects, removed_row: bool) -> None:
        if removed_row:
            self.plan._subscription_row_removed(row)

    def table_reset(self) -> None:
        self.plan.valid = False


class _AdvertisementDeltaListener:
    """Row-delta adapter feeding the plan's per-neighbour overlap indexes."""

    __slots__ = ("plan",)

    def __init__(self, plan: "DispatchPlan") -> None:
        self.plan = plan

    def row_subject_added(self, row, subject: str, created_row: bool) -> None:
        if created_row:
            self.plan._advertisement_row_added(row)

    def row_subjects_removed(self, row, subjects, removed_row: bool) -> None:
        if removed_row:
            self.plan._advertisement_row_removed(row)

    def table_reset(self) -> None:
        self.plan.advert_valid = False


class DispatchPlan:
    """Compiled, delta-maintained matching state for one broker.

    *stats* is the owning broker's dispatch sink (a private one when
    omitted); the index and the matcher count their work in it, across
    rebuilds.
    """

    def __init__(
        self, subscription_table, advertisement_table, stats: Optional[DispatchStats] = None
    ) -> None:
        self._subscription_table = subscription_table
        self._advertisement_table = advertisement_table
        self.index = PredicateIndex(stats)
        self.matcher = BitsetMatcher(self.index)
        #: fid -> the live rows of that filter, in the order they were
        #: created (``()`` for a free fid); the rows are the refcount.
        self.fid_rows: List[Tuple[Any, ...]] = []
        # (probe key, matched rows) of the last memoisable match, or None.
        self._last_match: Optional[Tuple[Any, Tuple[Any, ...]]] = None
        #: ``False`` until the first (lazy) build from the table, and again
        #: after a whole-table reset.
        self.valid = False
        # destination -> AdvertisementOverlapIndex
        self._advert_indexes: Dict[str, AdvertisementOverlapIndex] = {}
        self.advert_valid = False
        subscription_table.add_delta_listener(_SubscriptionDeltaListener(self))
        advertisement_table.add_delta_listener(_AdvertisementDeltaListener(self))

    # ------------------------------------------------------------------
    # Notification matching
    # ------------------------------------------------------------------
    def match(self, attributes: Mapping[str, Any]) -> Tuple[Any, ...]:
        """All subscription-table rows whose filter matches *attributes*.

        The plan remembers its last answer for plain str / int / float /
        bool values: the same names, values and value types again (a
        burst of one event, say) reuse it until a row changes.  The value
        types keep ``True`` apart from ``1``.
        """
        if not self.valid:
            self.rebuild()
        key = (tuple(attributes.items()), tuple(map(type, attributes.values())))
        last = self._last_match
        if last is not None and last[0] == key:
            return last[1]
        fid_rows = self.fid_rows
        out: List[Any] = []
        for fid in self.matcher.match_fids(attributes):
            out.extend(fid_rows[fid])
        matched = tuple(out)
        if {str, int, float, bool}.issuperset(key[1]):
            self._last_match = (key, matched)
        return matched

    # ------------------------------------------------------------------
    # Advertisement gate
    # ------------------------------------------------------------------
    def advertised_via(self, neighbour: str, filter_: Filter) -> bool:
        """Whether an advertisement received from *neighbour* may overlap *filter_*."""
        if not self.advert_valid:
            self.rebuild_adverts()
        index = self._advert_indexes.get(neighbour)
        if index is None:
            return False
        return index.any_overlap(filter_)

    # ------------------------------------------------------------------
    # Rebuilds (first use, and after whole-table resets)
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Rebuild the subscription side from one table scan."""
        self.index.clear()
        self.fid_rows = []
        self._last_match = None
        self.valid = True
        for row in self._subscription_table.entries():
            self._subscription_row_added(row)

    def rebuild_adverts(self) -> None:
        """Rebuild the advertisement side from one table scan."""
        self._advert_indexes = {}
        self.advert_valid = True
        for row in self._advertisement_table.entries():
            self._advertisement_row_added(row)

    def invalidate(self) -> None:
        """Force both sides to rebuild on next use (used by tests/benchmarks)."""
        self.valid = False
        self.advert_valid = False

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def _subscription_row_added(self, row) -> None:
        if not self.valid or isinstance(row.filter, MatchNone):
            return
        self._last_match = None
        fid = self.index.fid_of(row.filter)
        if fid is None:
            fid = self.index.add(row.filter)
            if fid == len(self.fid_rows):
                self.fid_rows.append(())
        self.fid_rows[fid] += (row,)

    def _subscription_row_removed(self, row) -> None:
        if not self.valid or isinstance(row.filter, MatchNone):
            return
        fid = self.index.fid_of(row.filter)
        if fid is None:
            return
        rows = self.fid_rows[fid]
        kept = tuple(other for other in rows if other.destination != row.destination)
        if len(kept) == len(rows):
            return
        self._last_match = None
        self.fid_rows[fid] = kept
        if not kept:
            self.index.remove(fid)

    def _advertisement_row_added(self, row) -> None:
        if not self.advert_valid:
            return
        index = self._advert_indexes.get(row.destination)
        if index is None:
            index = self._advert_indexes[row.destination] = AdvertisementOverlapIndex()
        index.add(row.filter)

    def _advertisement_row_removed(self, row) -> None:
        if not self.advert_valid:
            return
        index = self._advert_indexes.get(row.destination)
        if index is None:
            return
        index.remove(row.filter)
        if not len(index):
            del self._advert_indexes[row.destination]
