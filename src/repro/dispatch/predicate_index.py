"""Decomposed constraint index — the data half of the counting engine.

A conjunctive filter is a set of atomic *(attribute, constraint)*
predicates.  Distinct filters in a routing table overwhelmingly share
predicates (every subscriber constrains ``service``, roaming subscribers
differ only in their ``location`` window), so evaluating filters one by
one re-evaluates the same predicate over and over.  The
:class:`PredicateIndex` instead stores each distinct predicate **once**
and indexes it by ``(attribute, operator class)``:

* equality-like predicates (:class:`~repro.filters.constraints.Equals`,
  :class:`~repro.filters.constraints.InSet` — one bucket per member
  value — and degenerate ``Between`` intervals) live in hash buckets
  keyed by ``(attribute, canonical value)``: satisfied predicates are
  found by one dictionary lookup per notification attribute;
* one-sided comparisons (``<``, ``<=``, ``>``, ``>=``) live in
  per-``(attribute, type)`` pivot arrays kept sorted: the satisfied ones
  are a ``bisect`` slice, with **zero** constraint evaluations;
* proper intervals (``Between``) live in per-``(attribute, type)`` lists
  sorted by low bound: a bisection cuts the candidates to those whose
  interval can contain the value, which are then evaluated;
* everything else (``!=``, prefixes, ``exists``...) lives in residual
  per-attribute scan lists that are evaluated only when the attribute is
  present.

Filters are registered with a reference count and decomposed into
predicate ids; :meth:`PredicateIndex.satisfied_pids` computes the
satisfied predicate set for a notification, and the
:class:`~repro.dispatch.counting.BitsetMatcher` maps it back to matching
filters.  ``AnyValue`` constraints are dropped during decomposition (they
hold for present *and* absent attributes); every other constraint type
requires the attribute to be present, which is what makes per-filter
satisfaction *counting* sound: a filter with ``k`` indexed predicates
matches a notification exactly when ``k`` of its predicates fire, and
each predicate can fire at most once per notification (it is tied to a
single attribute).

Special cases: ``MatchNone`` never matches and is rejected by
:meth:`add`; ``MatchAll`` and empty filters decompose to zero predicates
and match every notification; :class:`Filter` subclasses that are
not plain conjunctions (defensive — none exist in routing tables today)
fall back to a whole-filter scan list.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.filters.attributes import canonical_key, value_type_of
from repro.filters.constraints import (
    Between,
    Constraint,
    Equals,
    GreaterEqual,
    GreaterThan,
    InSet,
    LessEqual,
    LessThan,
)
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.dispatch.stats import DispatchStats

#: Slot kinds a predicate can be stored under (recorded for removal).
_KIND_EQ = 0
_KIND_CMP = 1
_KIND_INTERVAL = 2
_KIND_RESIDUAL = 3

_CMP_OPS = {LessThan: "lt", LessEqual: "le", GreaterThan: "gt", GreaterEqual: "ge"}


class _CmpArray:
    """Sorted pivot array for one ``(attribute, value type, operator)``."""

    __slots__ = ("pivots", "pids")

    def __init__(self) -> None:
        self.pivots: List[Any] = []
        self.pids: List[int] = []

    def insert(self, pivot: Any, pid: int) -> None:
        position = bisect_left(self.pivots, pivot)
        self.pivots.insert(position, pivot)
        self.pids.insert(position, pid)

    def remove(self, pivot: Any, pid: int) -> None:
        position = bisect_left(self.pivots, pivot)
        while self.pids[position] != pid:
            position += 1
        del self.pivots[position]
        del self.pids[position]


class PredicateIndex:
    """Refcounted filters decomposed into shared, indexed predicates.

    *stats* is the sink the index and its matchers count their work in
    (the owning broker's, handed down by its dispatch plan; a private
    one when omitted).
    """

    def __init__(self, stats: Optional[DispatchStats] = None) -> None:
        self.stats = DispatchStats() if stats is None else stats
        # -- filters ----------------------------------------------------
        self._fids: Dict[Tuple[Any, ...], int] = {}  # filter key -> fid
        self.fid_filter: List[Optional[Filter]] = []
        self._fid_refs: List[int] = []
        self._fid_pids: List[Tuple[int, ...]] = []
        self._free_fids: List[int] = []
        #: Live fids of non-conjunctive Filter subclasses, evaluated whole.
        self.opaque_fids: Set[int] = set()
        # -- predicates -------------------------------------------------
        self._pids: Dict[Tuple[str, Tuple[Any, ...]], int] = {}
        self.pid_fids: List[Set[int]] = []
        self._pid_refs: List[int] = []
        self._pid_slot: List[Any] = []  # removal descriptor per pid
        self._free_pids: List[int] = []
        # -- structures -------------------------------------------------
        self._eq: Dict[Tuple[str, Any], List[int]] = {}
        self._cmp: Dict[Tuple[str, str, str], _CmpArray] = {}
        # (attr, type) -> parallel arrays sorted by interval low bound
        self._interval_lows: Dict[Tuple[str, str], List[Any]] = {}
        self._interval_entries: Dict[Tuple[str, str], List[Tuple[int, Constraint]]] = {}
        self._residual: Dict[str, List[Tuple[int, Constraint]]] = {}
        # -- observers --------------------------------------------------
        #: Matchers keeping compiled state over this index.  Notified on
        #: *structural* changes only (a filter actually indexed or
        #: unindexed, never a bare refcount bump) with the fid and the
        #: pids it references, so they can invalidate exactly the touched
        #: buckets.  ``clear()`` resets the list: compiled matchers must
        #: be rebuilt against the fresh index.
        self._observers: List[Any] = []

    def add_observer(self, observer: Any) -> None:
        """Register *observer* for ``filter_added(fid, pids)`` /
        ``filter_removed(fid, pids)`` structural-change callbacks."""
        self._observers.append(observer)

    def __len__(self) -> int:
        return len(self._fids)

    @property
    def predicate_count(self) -> int:
        """Number of distinct live predicates."""
        return len(self._pids)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, filter_: Filter) -> bool:
        """Register *filter_* (refcounted).  Returns ``True`` when new.

        ``MatchNone`` filters are rejected (they can never match).
        """
        if isinstance(filter_, MatchNone):
            return False
        key = filter_.key()
        fid = self._fids.get(key)
        if fid is not None:
            self._fid_refs[fid] += 1
            return False
        fid = self._allocate_fid(filter_)
        self._fids[key] = fid
        if not (type(filter_) is Filter or isinstance(filter_, MatchAll)):
            # Defensive: a Filter subclass may override ``matches``; its
            # behaviour cannot be reconstructed from its constraints.
            self.opaque_fids.add(fid)
            for observer in self._observers:
                observer.filter_added(fid, ())
            return True
        pids = []
        for name, constraint in filter_.constraint_items():
            if constraint.matches_absent():
                continue  # satisfied whether present or absent: no predicate
            pids.append(self._intern_predicate(name, constraint, fid))
        self._fid_pids[fid] = tuple(pids)
        for observer in self._observers:
            observer.filter_added(fid, self._fid_pids[fid])
        return True

    def remove(self, filter_: Filter) -> bool:
        """Drop one reference to *filter_*; unindex it at refcount zero."""
        if isinstance(filter_, MatchNone):
            return False
        key = filter_.key()
        fid = self._fids.get(key)
        if fid is None:
            return False
        self._fid_refs[fid] -= 1
        if self._fid_refs[fid] > 0:
            return True
        del self._fids[key]
        self.opaque_fids.discard(fid)
        removed_pids = self._fid_pids[fid]
        for pid in removed_pids:
            self.pid_fids[pid].discard(fid)
            self._pid_refs[pid] -= 1
            if self._pid_refs[pid] == 0:
                self._drop_predicate(pid)
        self.fid_filter[fid] = None
        self._fid_pids[fid] = ()
        self._free_fids.append(fid)
        for observer in self._observers:
            observer.filter_removed(fid, removed_pids)
        return True

    def clear(self) -> None:
        """Remove everything (the stats sink stays)."""
        self.__init__(self.stats)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def satisfied_pids(self, attributes: Mapping[str, Any]) -> List[int]:
        """Ids of every predicate the notification satisfies.

        Each returned pid appears exactly once: a predicate constrains a
        single attribute, and a notification carries one value per
        attribute.
        """
        out: List[int] = []
        eq = self._eq
        cmp = self._cmp
        interval_lows = self._interval_lows
        residual = self._residual
        evals = 0
        for name, value in attributes.items():
            try:
                value_key = canonical_key(value)
            except TypeError:
                value_key = None
            if value_key is not None:
                bucket = eq.get((name, value_key))
                if bucket:
                    out.extend(bucket)
                tag = value_key[0]
                if cmp:
                    # value < pivot  <=>  pivot strictly above value
                    array = cmp.get((name, tag, "lt"))
                    if array is not None:
                        out.extend(array.pids[bisect_right(array.pivots, value) :])
                    array = cmp.get((name, tag, "le"))
                    if array is not None:
                        out.extend(array.pids[bisect_left(array.pivots, value) :])
                    array = cmp.get((name, tag, "gt"))
                    if array is not None:
                        out.extend(array.pids[: bisect_left(array.pivots, value)])
                    array = cmp.get((name, tag, "ge"))
                    if array is not None:
                        out.extend(array.pids[: bisect_right(array.pivots, value)])
                lows = interval_lows.get((name, tag))
                if lows:
                    entries = self._interval_entries[(name, tag)]
                    for position in range(bisect_right(lows, value)):
                        pid, constraint = entries[position]
                        evals += 1
                        if constraint.matches(value):
                            out.append(pid)
            scans = residual.get(name)
            if scans:
                for pid, constraint in scans:
                    evals += 1
                    if constraint.matches(value):
                        out.append(pid)
        if evals:
            self.stats.constraint_evals += evals
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _allocate_fid(self, filter_: Filter) -> int:
        if self._free_fids:
            fid = self._free_fids.pop()
            self.fid_filter[fid] = filter_
            self._fid_refs[fid] = 1
            self._fid_pids[fid] = ()
            return fid
        fid = len(self.fid_filter)
        self.fid_filter.append(filter_)
        self._fid_refs.append(1)
        self._fid_pids.append(())
        return fid

    def _intern_predicate(self, name: str, constraint: Constraint, fid: int) -> int:
        predicate_key = (name, constraint.key())
        pid = self._pids.get(predicate_key)
        if pid is not None:
            self.pid_fids[pid].add(fid)
            self._pid_refs[pid] += 1
            return pid
        if self._free_pids:
            pid = self._free_pids.pop()
            self.pid_fids[pid] = {fid}
            self._pid_refs[pid] = 1
        else:
            pid = len(self.pid_fids)
            self.pid_fids.append({fid})
            self._pid_refs.append(1)
            self._pid_slot.append(None)
        self._pids[predicate_key] = pid
        self._pid_slot[pid] = (predicate_key, self._index_predicate(name, constraint, pid))
        return pid

    def _index_predicate(self, name: str, constraint: Constraint, pid: int) -> Tuple[Any, ...]:
        """Place the predicate in its structure; return a removal descriptor."""
        if isinstance(constraint, Equals):
            position = (name, canonical_key(constraint.value))
            self._eq.setdefault(position, []).append(pid)
            return (_KIND_EQ, (position,))
        if isinstance(constraint, InSet):
            positions = tuple((name, value_key) for value_key in constraint._by_key)
            for position in positions:
                self._eq.setdefault(position, []).append(pid)
            return (_KIND_EQ, positions)
        op = _CMP_OPS.get(type(constraint))
        if op is not None:
            pivot = constraint.value
            slot = (name, value_type_of(pivot), op)
            array = self._cmp.get(slot)
            if array is None:
                array = self._cmp[slot] = _CmpArray()
            array.insert(pivot, pid)
            return (_KIND_CMP, slot, pivot)
        if isinstance(constraint, Between):
            low_key = canonical_key(constraint.low)
            if constraint.low_inclusive and constraint.high_inclusive and (
                low_key == canonical_key(constraint.high)
            ):
                # Closed degenerate interval [x, x]: exactly an equality.
                position = (name, low_key)
                self._eq.setdefault(position, []).append(pid)
                return (_KIND_EQ, (position,))
            slot = (name, value_type_of(constraint.low))
            lows = self._interval_lows.setdefault(slot, [])
            entries = self._interval_entries.setdefault(slot, [])
            position = bisect_right(lows, constraint.low)
            lows.insert(position, constraint.low)
            entries.insert(position, (pid, constraint))
            return (_KIND_INTERVAL, slot, constraint.low)
        self._residual.setdefault(name, []).append((pid, constraint))
        return (_KIND_RESIDUAL, name)

    def _drop_predicate(self, pid: int) -> None:
        predicate_key, descriptor = self._pid_slot[pid]
        kind = descriptor[0]
        if kind == _KIND_EQ:
            for position in descriptor[1]:
                bucket = self._eq[position]
                bucket.remove(pid)
                if not bucket:
                    del self._eq[position]
        elif kind == _KIND_CMP:
            _, slot, pivot = descriptor
            array = self._cmp[slot]
            array.remove(pivot, pid)
            if not array.pids:
                del self._cmp[slot]
        elif kind == _KIND_INTERVAL:
            _, slot, low = descriptor
            lows = self._interval_lows[slot]
            entries = self._interval_entries[slot]
            position = bisect_left(lows, low)
            while entries[position][0] != pid:
                position += 1
            del lows[position]
            del entries[position]
            if not lows:
                del self._interval_lows[slot]
                del self._interval_entries[slot]
        else:
            scans = self._residual[descriptor[1]]
            scans[:] = [item for item in scans if item[0] != pid]
            if not scans:
                del self._residual[descriptor[1]]
        del self._pids[predicate_key]
        self._pid_slot[pid] = None
        self.pid_fids[pid] = set()
        self._free_pids.append(pid)
