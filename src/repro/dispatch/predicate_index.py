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

Each distinct filter gets a dense id (*fid*) and each distinct predicate
an id (*pid*), and every fact is stored once: ``pid_masks[pid]`` is one
big int with bit ``fid`` set per filter referencing the predicate,
written in place by :meth:`~PredicateIndex.add` and
:meth:`~PredicateIndex.remove`; a predicate is dropped when its mask
reaches 0, from the slots :func:`_placement` recomputes for it.  The index
keeps no reference counts: its owner, the
:class:`~repro.dispatch.plan.DispatchPlan`, adds each distinct filter once
and removes it by fid with its last routing row (it never adds
``MatchNone``, which cannot match).
:meth:`PredicateIndex.satisfied_pids` computes the satisfied predicate
set for a notification, and the
:class:`~repro.dispatch.counting.BitsetMatcher` maps it back to matching
filters.  ``AnyValue`` constraints are dropped during decomposition (they
hold for present *and* absent attributes); every other constraint type
requires the attribute to be present, which is what makes per-filter
satisfaction *counting* sound: a filter with ``k`` indexed predicates
matches a notification exactly when ``k`` of its predicates fire, and
each predicate can fire at most once per notification (it is tied to a
single attribute).  ``MatchAll`` and empty filters decompose to zero
predicates and match every notification; :class:`Filter` subclasses that
are not plain conjunctions (defensive — none exist in routing tables
today) fall back to a whole-filter scan list.
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
from repro.filters.filter import Filter, MatchAll
from repro.dispatch.stats import DispatchStats

#: Slot kinds a predicate can be stored under (see ``_placement``).
_KIND_EQ = 0
_KIND_CMP = 1
_KIND_INTERVAL = 2
_KIND_RESIDUAL = 3

_CMP_OPS = {LessThan: "lt", LessEqual: "le", GreaterThan: "gt", GreaterEqual: "ge"}


def _placement(name: str, constraint: Constraint) -> Tuple[int, Any, Any]:
    """Where predicate *name*/*constraint* lives: ``(kind, slot, pivot)``.

    The one answer both placing and dropping a predicate use: equality
    buckets (a tuple of ``(attribute, value key)`` positions, one per
    ``InSet`` member), a comparison array and its pivot, an interval list
    and its low bound, or a residual scan list.
    """
    if isinstance(constraint, Equals):
        return _KIND_EQ, ((name, canonical_key(constraint.value)),), None
    if isinstance(constraint, InSet):
        return _KIND_EQ, tuple((name, value_key) for value_key in constraint._by_key), None
    op = _CMP_OPS.get(type(constraint))
    if op is not None:
        return _KIND_CMP, (name, value_type_of(constraint.value), op), constraint.value
    if isinstance(constraint, Between):
        low_key = canonical_key(constraint.low)
        if constraint.low_inclusive and constraint.high_inclusive and (
            low_key == canonical_key(constraint.high)
        ):
            # Closed degenerate interval [x, x]: exactly an equality.
            return _KIND_EQ, ((name, low_key),), None
        return _KIND_INTERVAL, (name, value_type_of(constraint.low)), constraint.low
    return _KIND_RESIDUAL, name, None


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
    """Distinct filters decomposed into shared, indexed predicates.

    *stats* is the sink the index and its matchers count their work in
    (the owning broker's, handed down by its dispatch plan; a private
    one when omitted).  ``version`` changes with every filter added or
    removed, so a matcher knows when to recompile its metadata.
    """

    def __init__(self, stats: Optional[DispatchStats] = None) -> None:
        self.stats = DispatchStats() if stats is None else stats
        self.version = 0
        # -- filters ----------------------------------------------------
        self._fids: Dict[Tuple[Any, ...], int] = {}  # filter key -> fid
        self.fid_filter: List[Optional[Filter]] = []
        self._fid_pids: List[Tuple[int, ...]] = []
        self._free_fids: List[int] = []
        #: Live fids of non-conjunctive Filter subclasses, evaluated whole.
        self.opaque_fids: Set[int] = set()
        # -- predicates -------------------------------------------------
        self._pids: Dict[Tuple[str, Tuple[Any, ...]], int] = {}
        #: Bit ``fid`` set for every live filter referencing the predicate.
        self.pid_masks: List[int] = []
        # predicate key (a filter key's own item) and constraint per pid
        self._pid_keys: List[Optional[Tuple[str, Tuple[Any, ...]]]] = []
        self._pid_constraints: List[Optional[Constraint]] = []
        self._free_pids: List[int] = []
        # -- structures -------------------------------------------------
        self._eq: Dict[Tuple[str, Any], List[int]] = {}
        self._cmp: Dict[Tuple[str, str, str], _CmpArray] = {}
        # (attr, type) -> parallel arrays sorted by interval low bound
        self._interval_lows: Dict[Tuple[str, str], List[Any]] = {}
        self._interval_entries: Dict[Tuple[str, str], List[Tuple[int, Constraint]]] = {}
        self._residual: Dict[str, List[Tuple[int, Constraint]]] = {}

    def __len__(self) -> int:
        return len(self._fids)

    @property
    def predicate_count(self) -> int:
        """Number of distinct live predicates."""
        return len(self._pids)

    def fid_of(self, filter_: Filter) -> Optional[int]:
        """The fid *filter_* (or an equal-keyed filter) is indexed under, if any."""
        return self._fids.get(filter_.key())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, filter_: Filter) -> int:
        """Index *filter_*, which must not be indexed yet; returns its fid.

        Every predicate mask it references is written in place (counted
        in ``stats.bitset_rebuilds``).
        """
        if self._free_fids:
            fid = self._free_fids.pop()
            self.fid_filter[fid] = filter_
        else:
            fid = len(self.fid_filter)
            self.fid_filter.append(filter_)
            self._fid_pids.append(())
        self._fids[filter_.key()] = fid
        self.version += 1
        if not (type(filter_) is Filter or isinstance(filter_, MatchAll)):
            # Defensive: a Filter subclass may override ``matches``; its
            # behaviour cannot be reconstructed from its constraints.
            self.opaque_fids.add(fid)
            return fid
        bit = 1 << fid
        pids = []
        for predicate_key in filter_.key():
            constraint = filter_.constraint_for(predicate_key[0])
            if not constraint.matches_absent():  # else no predicate: always holds
                pid = self._intern_predicate(predicate_key, constraint)
                self.pid_masks[pid] |= bit
                pids.append(pid)
        self._fid_pids[fid] = tuple(pids)
        self.stats.bitset_rebuilds += len(pids)
        return fid

    def remove(self, fid: int) -> None:
        """Unindex the filter *fid*, dropping the predicates only it referenced."""
        del self._fids[self.fid_filter[fid].key()]
        self.opaque_fids.discard(fid)
        keep = ~(1 << fid)
        masks = self.pid_masks
        pids = self._fid_pids[fid]
        for pid in pids:
            masks[pid] &= keep
            if not masks[pid]:
                self._drop_predicate(pid)
        self.stats.bitset_rebuilds += len(pids)
        self.fid_filter[fid] = None
        self._fid_pids[fid] = ()
        self._free_fids.append(fid)
        self.version += 1

    def clear(self) -> None:
        """Remove everything (the stats sink stays; matchers recompile)."""
        version = self.version
        self.__init__(self.stats)
        self.version = version + 1

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
    def _intern_predicate(self, predicate_key: Tuple[str, Any], constraint: Constraint) -> int:
        pid = self._pids.get(predicate_key)
        if pid is not None:
            return pid
        if self._free_pids:
            pid = self._free_pids.pop()
            self._pid_keys[pid] = predicate_key
            self._pid_constraints[pid] = constraint
        else:
            pid = len(self.pid_masks)
            self.pid_masks.append(0)
            self._pid_keys.append(predicate_key)
            self._pid_constraints.append(constraint)
        self._pids[predicate_key] = pid
        kind, slot, pivot = _placement(predicate_key[0], constraint)
        if kind == _KIND_EQ:
            for position in slot:
                self._eq.setdefault(position, []).append(pid)
        elif kind == _KIND_CMP:
            array = self._cmp.get(slot)
            if array is None:
                array = self._cmp[slot] = _CmpArray()
            array.insert(pivot, pid)
        elif kind == _KIND_INTERVAL:
            lows = self._interval_lows.setdefault(slot, [])
            position = bisect_right(lows, pivot)
            lows.insert(position, pivot)
            self._interval_entries.setdefault(slot, []).insert(position, (pid, constraint))
        else:
            self._residual.setdefault(slot, []).append((pid, constraint))
        return pid

    def _drop_predicate(self, pid: int) -> None:
        predicate_key = self._pid_keys[pid]
        constraint = self._pid_constraints[pid]
        kind, slot, pivot = _placement(predicate_key[0], constraint)
        if kind == _KIND_EQ:
            for position in slot:
                bucket = self._eq[position]
                bucket.remove(pid)
                if not bucket:
                    del self._eq[position]
        elif kind == _KIND_CMP:
            array = self._cmp[slot]
            array.remove(pivot, pid)
            if not array.pids:
                del self._cmp[slot]
        elif kind == _KIND_INTERVAL:
            lows = self._interval_lows[slot]
            entries = self._interval_entries[slot]
            position = bisect_left(lows, pivot)
            while entries[position][0] != pid:
                position += 1
            del lows[position]
            del entries[position]
            if not lows:
                del self._interval_lows[slot]
                del self._interval_entries[slot]
        else:
            scans = self._residual[slot]
            scans[:] = [item for item in scans if item[0] != pid]
            if not scans:
                del self._residual[slot]
        del self._pids[predicate_key]
        self._pid_keys[pid] = self._pid_constraints[pid] = None
        self._free_pids.append(pid)
