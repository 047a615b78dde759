"""Delta-maintained desired forwarding sets.

:meth:`repro.broker.base.Broker.refresh_forwarding` needs, per neighbour,
the *desired* set of (filter, subject) pairs that should be registered
there.  Each neighbour keeps a :class:`NeighbourForwardingState` that
applies the routing table's row-level deltas (see
:meth:`repro.routing.table.RoutingTable.add_delta_listener`) directly to
a cached desired dict, so a routing change costs O(affected entries), not
O(table).  What the state must hold after any sequence of deltas is
written down from scratch — table scan, gating, Section 2.2 reduction,
first-cover assignment — in ``tests/oracles/forwarding.py``.

The state maintains, per neighbour:

* the gated *input entries* — one per distinct filter key, aggregating the
  plain (non-logical) subjects of every contributing table row, ordered by
  the first contributing row's ``seq`` (which equals the canonical input
  order a scan of the table sees);
* the *selection* — exactly ``minimal_cover_set`` over the ordered input
  filters (or the identity for non-reducing strategies);
* the *cover assignment* — for every input filter, the first selected
  filter (in input order) that covers it;
* the *desired dict* ``{(cover key, subject): cover filter}`` with
  refcounts, plus the set of pairs that changed since the last flush so
  the refresh emits messages in O(changes).

Selection maintenance follows the input-based semantics of
:func:`repro.filters.covering.minimal_cover_set` (a filter is dropped iff
another input filter strictly covers it, or an *earlier* equivalent one
does):

* **append** — a new filter (inputs always grow at the end of the
  canonical order) is dropped iff some selected filter covers it; if not,
  it joins the selection and evicts the selected filters it strictly
  covers, whose members are reassigned to their next cover;
* **remove, non-selected** — nothing can resurrect (covering is
  transitive: the remaining cover chain still stands);
* **remove, selected** — only the removed cover's members can resurrect;
  members still covered by the remaining selection are reassigned, the
  rest are reduced among themselves (pairwise, position-ordered) and the
  survivors re-enter the selection at their canonical positions, stealing
  members from later covers they also cover.

Each step finds the filters it has to test — who covers this one, whom
does it cover — through a two-way
:class:`~repro.filters.covering_cache.CoveringIndex` over the input
entries, so its cost follows the structurally comparable entries, not the
size of the selection.

Events that would perturb the canonical *order* (a filter's first
contributing row disappearing while later rows survive) are rare and are
handled by re-running the reduction over the maintained entries — still
no table scan.  Advertisement changes and logical-mobility changes can
flip the per-filter gating wholesale, so they invalidate the state and
the next refresh rebuilds it from one table scan.

**Merging strategies** reduce with the specification itself:
:func:`~repro.filters.merging.merge_filters` over the canonical input
order, run through the network's
:class:`~repro.filters.merging.MergePairCache`, then the covering
selection over the *merged* filters; each input is assigned the selected
filter equal to it, else the first one covering it.  Because greedy
merging is order-dependent and non-local (one changed input can
repartition several groups), any structural input change marks the
reduction dirty and the next refresh re-reduces from the maintained
entries — no table scan, and thanks to the merge-pair/covering caches
only pairs involving changed filters (or the new merge products they
create) are evaluated raw.  Subject-only changes keep the assignment and
update the desired pairs in O(1) exactly like the covering mode.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.filters.covering_cache import CoveringIndex, minimal_cover_set_cached
from repro.filters.filter import Filter
from repro.filters.merging import FilterCaches, MergePairCache, merge_filters


class _InputEntry:
    """One distinct input filter with its contributing rows and subjects."""

    __slots__ = ("filter", "key", "pos", "rows", "subjects")

    def __init__(self, filter_: Filter, key: Any, pos: int) -> None:
        self.filter = filter_
        self.key = key
        #: Canonical position: the smallest ``seq`` of a contributing row.
        self.pos = pos
        #: row seq -> number of plain subjects that row contributes.
        self.rows: Dict[int, int] = {}
        #: subject -> number of contributing rows carrying it.
        self.subjects: Dict[str, int] = {}


class NeighbourForwardingState:
    """Delta-maintained desired forwarding set for one neighbour.

    *reduction* is the strategy's
    :attr:`~repro.routing.strategies.RoutingStrategy.delta_reduction`;
    the reducing modes run their covering (and merge-pair) tests through
    the broker's shared *caches*.
    """

    __slots__ = (
        "cache",
        "covers",
        "merge_pairs",
        "cover_filters",
        "valid",
        "order_dirty",
        "full_diff",
        "entries",
        "selection",
        "selected",
        "assigned",
        "members",
        "desired",
        "pair_refs",
        "pending",
        "_max_pos",
        "_index",
        "_key_at",
    )

    def __init__(self, caches: FilterCaches, reduction: str) -> None:
        self.cache = caches.covering
        #: The cached covering test ``covers(covering, covered)``, or
        #: ``None`` for strategies that forward every filter.
        self.covers: Optional[Callable[[Filter, Filter], bool]] = (
            None if reduction == "none" else caches.covering.covers
        )
        #: The network's pair-merge memo (merging strategies only); the
        #: selection is then computed over the merged filters and covers
        #: may be synthesised filters that are not input entries.
        self.merge_pairs: Optional[MergePairCache] = (
            caches.merge_pairs if reduction == "merging" else None
        )
        #: cover filter key -> cover filter, for covers that are *merged*
        #: filters (not entries).  Empty in non-merging modes.
        self.cover_filters: Dict[Any, Filter] = {}
        #: ``False`` -> the gating inputs may have changed wholesale; the
        #: next refresh must rebuild from a table scan.
        self.valid = False
        #: Canonical positions shifted; re-reduce from the kept entries.
        self.order_dirty = False
        #: The next flush must diff desired against forwarded completely
        #: (after rebuilds).
        self.full_diff = True
        self.entries: Dict[Any, _InputEntry] = {}
        #: Selected covers as (pos, filter key), sorted by pos.  Positions
        #: are unique (each table row contributes to exactly one entry),
        #: so tuple comparison never reaches the — unorderable — keys.
        self.selection: List[Tuple[int, Any]] = []
        self.selected: Set[Any] = set()
        #: input filter key -> filter key of its assigned cover.
        self.assigned: Dict[Any, Any] = {}
        #: cover filter key -> keys of the inputs assigned to it (incl. itself).
        self.members: Dict[Any, Set[Any]] = {}
        self.desired: Dict[Tuple[Any, str], Filter] = {}
        self.pair_refs: Dict[Tuple[Any, str], int] = {}
        #: Pairs whose membership in desired or forwarded may have changed
        #: since the last flush; the refresh only needs to look at these.
        self.pending: Set[Tuple[Any, str]] = set()
        self._max_pos = 0
        #: CoveringIndex over the input entries (by canonical position),
        #: so every covering question the selection maintenance asks —
        #: who covers this filter, whom does it cover — only tests the
        #: structurally comparable entries.  It spans *all* inputs, not
        #: just the selection, because a resurrected filter steals dropped
        #: members of other covers, which a selection index cannot see.
        #: Maintained in the covering mode only; merging selections hold
        #: synthesised filters and are rebuilt wholesale anyway.
        self._index: Optional[CoveringIndex] = CoveringIndex() if reduction == "covering" else None
        #: canonical position -> input filter key, mirrored with the index
        #: so candidate positions resolve back to entries.
        self._key_at: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Desired-pair bookkeeping
    # ------------------------------------------------------------------
    def _pair_add(self, cover_key: Any, subject: str, cover: Filter) -> None:
        pair = (cover_key, subject)
        count = self.pair_refs.get(pair, 0)
        self.pair_refs[pair] = count + 1
        if count == 0:
            self.desired[pair] = cover
            self.pending.add(pair)

    def _pair_remove(self, cover_key: Any, subject: str) -> None:
        pair = (cover_key, subject)
        count = self.pair_refs[pair] - 1
        if count:
            self.pair_refs[pair] = count
        else:
            del self.pair_refs[pair]
            del self.desired[pair]
            self.pending.add(pair)

    def _move_pairs(self, member_key: Any, old_cover: Any, new_cover: Any) -> None:
        if old_cover == new_cover:
            return
        entry = self.entries[member_key]
        cover_filter = self.entries[new_cover].filter
        for subject in entry.subjects:
            self._pair_remove(old_cover, subject)
            self._pair_add(new_cover, subject, cover_filter)

    def _cover_filter(self, cover_key: Any) -> Filter:
        """The filter forwarded for *cover_key* (an entry, or a merged filter)."""
        if self.merge_pairs is not None:
            return self.cover_filters[cover_key]
        return self.entries[cover_key].filter

    # ------------------------------------------------------------------
    # Delta application (the O(change) hot path)
    # ------------------------------------------------------------------
    def add_contribution(self, filter_: Filter, subject: str, seq: int) -> None:
        """One plain subject of a table row (with creation seq) was added."""
        key = filter_.key()
        entry = self.entries.get(key)
        if entry is None:
            entry = _InputEntry(filter_, key, seq)
            self.entries[key] = entry
            if seq < self._max_pos:
                # A filter entered the input through an *old* row (its
                # earlier subjects were all logical): it belongs before
                # already-present entries, so the reduction order changed.
                self.order_dirty = True
            else:
                self._max_pos = seq
            if self.merge_pairs is not None:
                # A new input filter can repartition the greedy merge in
                # non-local ways; re-reduce from the entries at the next
                # refresh (the merge-pair cache keeps it O(changed pairs)).
                self.order_dirty = True
            else:
                self._filter_added(entry)
        elif seq < entry.pos:
            # The canonical position moved earlier.  Do NOT touch
            # entry.pos here: the selection stores (pos, key) tuples that
            # must stay consistent for later removals; the rebuild
            # triggered by order_dirty recomputes every position.
            self.order_dirty = True
        entry.rows[seq] = entry.rows.get(seq, 0) + 1
        count = entry.subjects.get(subject, 0)
        entry.subjects[subject] = count + 1
        if count == 0 and not (self.merge_pairs is not None and self.order_dirty):
            # A pending merge re-reduction rebuilds the desired pairs
            # wholesale (and the assignment may not know this key yet), so
            # eager pair maintenance only runs while the assignment is
            # current.
            cover_key = self.assigned[key]
            self._pair_add(cover_key, subject, self._cover_filter(cover_key))

    def remove_contribution(self, filter_key: Any, subject: str, seq: int) -> None:
        """One plain subject of a table row was removed."""
        entry = self.entries.get(filter_key)
        if entry is None or seq not in entry.rows:
            # Contribution unknown (state was rebuilt around this event);
            # play safe and rebuild from the table.
            self.valid = False
            return
        count = entry.subjects.get(subject, 0)
        if count <= 1:
            entry.subjects.pop(subject, None)
            if count == 1 and not (self.merge_pairs is not None and self.order_dirty):
                self._pair_remove(self.assigned[filter_key], subject)
        else:
            entry.subjects[subject] = count - 1
        rows_left = entry.rows[seq] - 1
        if rows_left:
            entry.rows[seq] = rows_left
            return
        del entry.rows[seq]
        if entry.rows:
            if seq == entry.pos:
                # The first contributing row died while later rows
                # survive: the canonical position shifts.  Keep the stale
                # pos (the selection's (pos, key) tuples reference it and
                # dead seqs are never reused, so it stays unique) and let
                # the order_dirty rebuild recompute every position.
                self.order_dirty = True
            return
        if self.merge_pairs is not None:
            # Losing an input filter can resurrect or repartition merge
            # groups; re-reduce from the remaining entries at the next
            # refresh.
            self.order_dirty = True
        else:
            self._filter_removed(entry)
        del self.entries[filter_key]

    # ------------------------------------------------------------------
    # Selection maintenance
    # ------------------------------------------------------------------
    def _candidate_keys(self, positions: Optional[List[int]]) -> List[Any]:
        """Input keys at the index's candidate *positions*, in canonical order.

        ``None`` is the index's "cannot prune" answer: every input.
        """
        key_at = self._key_at
        return [key_at[pos] for pos in sorted(key_at if positions is None else positions)]

    def _first_cover(self, filter_: Filter) -> Optional[Any]:
        """Key of the first selected filter (input order) covering *filter_*.

        Only the structurally comparable inputs are tested (a sound
        superset of the real coverers, see
        :class:`~repro.filters.covering_cache.CoveringIndex`), in ascending
        position, which *is* selection order, so the pruned walk returns
        exactly what a scan of the selection would.  Covering mode only.
        """
        covers = self.covers
        if covers is None:
            return None
        entries = self.entries
        selected = self.selected
        for key in self._candidate_keys(self._index.candidate_positions(filter_)):
            if key in selected and covers(entries[key].filter, filter_):
                return key
        return None

    def _select(self, entry: _InputEntry) -> None:
        insort(self.selection, (entry.pos, entry.key))
        self.selected.add(entry.key)
        self.assigned[entry.key] = entry.key
        self.members[entry.key] = {entry.key}

    def _deselect(self, pos: int, key: Any) -> None:
        """Remove ``(pos, key)`` from the selection."""
        # (pos,) sorts immediately before (pos, key) and positions are
        # unique, so the bisection never compares keys.
        del self.selection[bisect_left(self.selection, (pos,))]
        self.selected.discard(key)

    def _filter_added(self, entry: _InputEntry) -> None:
        """A filter appended at the end of the canonical input order."""
        covers = self.covers
        evicted: List[Any] = []
        if covers is not None:
            self._index.add(entry.pos, entry.filter)
            self._key_at[entry.pos] = entry.key
            cover_key = self._first_cover(entry.filter)
            if cover_key is not None:
                # Covered by (or equivalent to) an earlier selected filter:
                # the selection is unchanged.
                self.assigned[entry.key] = cover_key
                self.members[cover_key].add(entry.key)
                return
            # Nothing selected covers it: it joins the selection and evicts
            # the selected filters it (strictly, by the check above) covers.
            entries = self.entries
            selected = self.selected
            evicted = [
                key
                for key in self._candidate_keys(
                    self._index.covered_candidate_positions(entry.filter)
                )
                if key in selected and covers(entry.filter, entries[key].filter)
            ]
        for evicted_key in evicted:
            self._deselect(self.entries[evicted_key].pos, evicted_key)
        self._select(entry)
        for evicted_key in evicted:
            # Every orphan is covered by the new filter (covering is
            # transitive), so a cover always exists; from-scratch
            # assignment picks the first selected cover in input order.
            for orphan_key in self.members.pop(evicted_key):
                new_cover = self._first_cover(self.entries[orphan_key].filter)
                self.assigned[orphan_key] = new_cover
                self.members[new_cover].add(orphan_key)
                self._move_pairs(orphan_key, evicted_key, new_cover)

    def _filter_removed(self, entry: _InputEntry) -> None:
        """A filter left the input (its last contributing row died)."""
        key = entry.key
        index = self._index
        if index is not None:
            index.remove(entry.pos)
            del self._key_at[entry.pos]
        if key not in self.selected:
            # Dropped filters cannot resurrect anything: whoever covered
            # them still stands.
            cover_key = self.assigned.pop(key)
            self.members[cover_key].discard(key)
            return
        self._deselect(entry.pos, key)
        self.assigned.pop(key)
        own_members = self.members.pop(key)
        own_members.discard(key)
        if not own_members:
            return
        covers = self.covers
        entries = self.entries
        by_pos = sorted(own_members, key=lambda member: entries[member].pos)
        # Members still covered by the remaining selection stay dropped;
        # the rest are resurrection candidates.
        candidates = [
            member for member in by_pos if self._first_cover(entries[member].filter) is None
        ]
        candidate_set = set(candidates)
        # Reduce the candidates among themselves with minimal_cover_set
        # semantics: dropped iff another candidate strictly covers it, or
        # an earlier equivalent one does.  (Non-candidate inputs cannot
        # drop a candidate: their own cover would cover it transitively.)
        resurrected: List[Any] = []
        for candidate in candidates:
            candidate_filter = entries[candidate].filter
            candidate_pos = entries[candidate].pos
            dropped = False
            for other in self._candidate_keys(index.candidate_positions(candidate_filter)):
                if other == candidate or other not in candidate_set:
                    continue
                other_filter = entries[other].filter
                if covers(other_filter, candidate_filter) and (
                    not covers(candidate_filter, other_filter)
                    or entries[other].pos < candidate_pos
                ):
                    dropped = True
                    break
            if not dropped:
                resurrected.append(candidate)
        for kept in resurrected:
            self._select(entries[kept])
            self._move_pairs(kept, key, kept)
        for member in by_pos:
            if member in self.selected:
                continue
            new_cover = self._first_cover(entries[member].filter)
            self.assigned[member] = new_cover
            self.members[new_cover].add(member)
            self._move_pairs(member, key, new_cover)
        self._steal_members(resurrected)

    def _steal_members(self, resurrected: Sequence[Any]) -> None:
        """Reassign members of later covers that a resurrected filter covers.

        A resurrected filter re-enters the selection at its canonical
        position; any dropped input currently assigned to a cover *after*
        that position whose filter it covers now has an earlier first
        cover.  *resurrected* is in canonical order, so an input covered
        by several of them ends up with the earliest.
        """
        entries = self.entries
        covers = self.covers
        assigned = self.assigned
        selected = self.selected
        for kept in resurrected:
            kept_entry = entries[kept]
            for member in self._candidate_keys(
                self._index.covered_candidate_positions(kept_entry.filter)
            ):
                if member in selected:
                    continue
                cover_key = assigned[member]
                if entries[cover_key].pos > kept_entry.pos and covers(
                    kept_entry.filter, entries[member].filter
                ):
                    self.members[cover_key].discard(member)
                    assigned[member] = kept
                    self.members[kept].add(member)
                    self._move_pairs(member, cover_key, kept)

    # ------------------------------------------------------------------
    # Rebuilds
    # ------------------------------------------------------------------
    def rebuild_from_rows(
        self,
        rows: Iterable[Any],
        plain_subjects: Callable[[Any], Optional[Iterable[str]]],
    ) -> None:
        """Rebuild the gated input from a table scan, then re-reduce.

        *rows* are :class:`~repro.routing.table.RoutingEntry` objects in
        table (seq) order; *plain_subjects* returns the contributing
        subjects of a row, or a false value when the row is excluded
        (wrong destination, gated out, MatchNone, all-logical).
        """
        self.entries = {}
        self._max_pos = 0
        for row in rows:
            subjects = plain_subjects(row)
            if not subjects:
                continue
            key = row.filter.key()
            entry = self.entries.get(key)
            if entry is None:
                entry = _InputEntry(row.filter, key, row.seq)
                self.entries[key] = entry
                self._max_pos = row.seq
            contributed = 0
            for subject in subjects:
                contributed += 1
                entry.subjects[subject] = entry.subjects.get(subject, 0) + 1
            entry.rows[row.seq] = contributed
        self.rebuild_reduction()
        self.valid = True

    def rebuild_reduction(self) -> None:
        """Re-run selection, assignment and desired pairs over the entries."""
        for entry in self.entries.values():
            # Positions may be stale after an order perturbation (see
            # add/remove_contribution); the true canonical position is
            # the smallest surviving contributing row.
            entry.pos = min(entry.rows)
        ordered = sorted(self.entries.values(), key=lambda entry: entry.pos)
        self.selection = []
        self.selected = set()
        self.assigned = {}
        self.members = {}
        self.cover_filters = {}
        self.desired = {}
        self.pair_refs = {}
        self.pending.clear()
        if self._index is not None:
            self._index = CoveringIndex()
            self._key_at = {}
            for entry in ordered:
                self._index.add(entry.pos, entry.filter)
                self._key_at[entry.pos] = entry.key
        if self.merge_pairs is not None:
            self._rebuild_merging_reduction(ordered)
            self.order_dirty = False
            self.full_diff = True
            self.pending.clear()
            return
        if self.covers is None:
            selected_filters = [entry.filter for entry in ordered]
        else:
            selected_filters = minimal_cover_set_cached(
                [entry.filter for entry in ordered], self.cache
            )
        for filter_ in selected_filters:
            entry = self.entries[filter_.key()]
            self.selection.append((entry.pos, entry.key))
            self.selected.add(entry.key)
            self.assigned[entry.key] = entry.key
            self.members[entry.key] = {entry.key}
        for entry in ordered:
            if entry.key in self.selected:
                cover_key = entry.key
            else:
                cover_key = self._first_cover(entry.filter)
                if cover_key is None:
                    # The reduction should always produce a cover; fall
                    # back to the filter itself to stay correct.
                    cover_key = entry.key
                    self.members.setdefault(cover_key, set())
                self.assigned[entry.key] = cover_key
                self.members[cover_key].add(entry.key)
            cover = self.entries[cover_key].filter
            for subject in entry.subjects:
                self._pair_add(cover_key, subject, cover)
        self.order_dirty = False
        self.full_diff = True
        self.pending.clear()

    def _rebuild_merging_reduction(self, ordered: Sequence[_InputEntry]) -> None:
        """Merging-mode reduction: greedy merge → covering → assignment.

        The specification verbatim:
        ``minimal_cover_set(merge_filters(inputs))`` for the selection and,
        for the per-input cover, key equality over the whole selection
        first, then the first covering filter in selection order — with
        both tests run through the network's caches.
        """
        merged = merge_filters(
            [entry.filter for entry in ordered], pair_merge=self.merge_pairs.merge
        )
        selected = minimal_cover_set_cached(merged, self.cache)
        covers = self.covers
        for position, filter_ in enumerate(selected):
            key = filter_.key()
            self.selection.append((position, key))
            self.selected.add(key)
            self.cover_filters[key] = filter_
        for entry in ordered:
            if entry.key in self.selected:
                cover = self.cover_filters[entry.key]
            else:
                cover = None
                for candidate in selected:
                    if covers(candidate, entry.filter):
                        cover = candidate
                        break
                if cover is None:
                    # The reduction should always produce a cover (merged
                    # roots cover their members and the covering reduction
                    # keeps a coverer for everything it drops); fall back
                    # to the filter itself to stay correct.
                    cover = entry.filter
                    self.cover_filters.setdefault(cover.key(), cover)
            cover_key = cover.key()
            self.assigned[entry.key] = cover_key
            for subject in entry.subjects:
                self._pair_add(cover_key, subject, cover)

    # ------------------------------------------------------------------
    # Flush support
    # ------------------------------------------------------------------
    def settled(self) -> bool:
        """Nothing changed since the last flush: forwarded equals desired."""
        return self.valid and not (self.order_dirty or self.full_diff or self.pending)

    def diff_against(
        self, forwarded: Dict[Tuple[Any, str], Filter]
    ) -> Tuple[Dict[Tuple[Any, str], Filter], Dict[Tuple[Any, str], Filter]]:
        """(to_add, to_remove) closing the gap from *forwarded* to desired.

        Looks at the pending pairs only — a writer of the forwarded dict
        other than the flushes adds the pair it wrote to them — except
        after a rebuild, which diffs in full.
        """
        desired = self.desired
        if self.full_diff:
            to_add = {pair: filt for pair, filt in desired.items() if pair not in forwarded}
            to_remove = {
                pair: filt for pair, filt in forwarded.items() if pair not in desired
            }
            self.full_diff = False
        else:
            to_add = {}
            to_remove = {}
            for pair in self.pending:
                if pair in desired:
                    if pair not in forwarded:
                        to_add[pair] = desired[pair]
                elif pair in forwarded:
                    to_remove[pair] = forwarded[pair]
        self.pending.clear()
        return to_add, to_remove
