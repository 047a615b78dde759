"""Subscription and advertisement forwarding (Section 2.2), one record per neighbour.

:class:`SubscriptionForwarding` is the broker component that decides what
each neighbour is sent.  A refresh needs, per neighbour, the *desired*
set of (filter, subject) pairs that should be registered there.  The
neighbour's :class:`NeighbourForwardingState` — also the record of what
was sent there and of which filters may travel there — applies the
routing table's row-level deltas (see
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
from repro.filters.filter import Filter, MatchNone
from repro.filters.merging import FilterCaches, MergePairCache, merge_filters
from repro.messages.admin import Advertise, Subscribe, Unadvertise, Unsubscribe


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
        "forwarded",
        "advertised",
        "verdicts",
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
        #: What the neighbour holds from this broker, ``{(filter key,
        #: subject): filter}``: the Subscribes (``forwarded``) and the
        #: Advertises (``advertised``) sent there and not withdrawn since.
        self.forwarded: Dict[Tuple[Any, str], Filter] = {}
        self.advertised: Dict[Tuple[Any, str], Filter] = {}
        #: The advertisement gate's memo, filter key -> whether the
        #: neighbour advertised something overlapping the filter.  Cleared
        #: whenever the neighbour's advertisement rows change.
        self.verdicts: Dict[Any, bool] = {}
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

    def diff(self) -> Tuple[Dict[Tuple[Any, str], Filter], Dict[Tuple[Any, str], Filter]]:
        """(to_add, to_remove) closing the gap from forwarded to desired.

        Looks at the pending pairs only — a writer of :attr:`forwarded`
        other than the flushes goes through :meth:`sent_behind` — except
        after a rebuild, which diffs in full.
        """
        desired = self.desired
        forwarded = self.forwarded
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

    def sent_behind(self, filter_: Filter, subject: str) -> None:
        """The neighbour was sent *filter_* for *subject* outside a flush.

        The next diff looks at the pair: an Unsubscribe follows if it is
        not desired.
        """
        pair = (filter_.key(), subject)
        self.forwarded[pair] = filter_
        self.pending.add(pair)


# A forwarding diff is emitted sorted, so message emission is deterministic.
# Filter keys are nested tuples mixing value types, which do not compare
# across types, so each key is mapped once to a type-ranked token, memoised
# on the (immutable) filter since the same filters recur on every refresh.


def _sortable_token(value: Any) -> Any:
    """A totally ordered, cheap-to-compare stand-in for a filter-key part."""
    if isinstance(value, tuple):
        return (3, tuple(_sortable_token(part) for part in value))
    if isinstance(value, bool):  # before int: bool is an int subclass
        return (0, 1 if value else 0)
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    return (4, repr(value))


def _forwarding_sort_key(item: Tuple[Tuple[Any, str], Filter]) -> Tuple[Any, str]:
    (_, subject), filter_ = item
    token = filter_._sort_token
    if token is None:
        token = filter_._sort_token = _sortable_token(filter_.key())
    return (token, subject)


def _in_emission_order(diff: Dict[Tuple[Any, str], Filter]) -> List[Tuple[Tuple[Any, str], Filter]]:
    """The items of a forwarding diff in their deterministic emission order."""
    if len(diff) < 2:
        # Nothing to order (the norm for a pending-pair diff): do not build
        # and memoise a sort token for the filter.
        return list(diff.items())
    return sorted(diff.items(), key=_forwarding_sort_key)


#: neighbour -> the (filter, subject) pairs of the messages it was sent.
_SentPairs = Dict[str, List[Tuple[Filter, str]]]


class SubscriptionForwarding:
    """One broker's subscription and advertisement forwarding (Section 2.2).

    ``states`` maps each neighbour ``N`` to its
    :class:`NeighbourForwardingState`, the one record of what ``N`` was
    sent (``forwarded``, ``advertised``), what it should hold (``desired``:
    the plain subscriptions of every other destination, gated by ``N``'s
    advertisements, reduced by the strategy) and which filters may travel
    there (``verdicts``).  :meth:`refresh` emits exactly the ``Subscribe`` /
    ``Unsubscribe`` messages that close the gap; plain subscriptions,
    client attach / detach and the relocation protocol all reuse it, each
    through :meth:`~repro.broker.base.Broker.refresh_forwarding`.
    """

    #: Bound for each neighbour's verdict dict: it is cleared (not evicted
    #: entry-wise) when it grows past this, the policy the CoveringCache uses.
    _memo_limit = 65536

    def __init__(self, broker: Any) -> None:
        self.broker = broker
        self.states: Dict[str, NeighbourForwardingState] = {}
        broker.advertisement_table.add_listener(self.advertisement_rows_changed)
        if not broker.strategy.floods_notifications:
            # A flooding broker forwards no subscription, so its states
            # never receive a contribution: every refresh reconciles the
            # forwarded set with an empty desired set.
            broker.subscription_table.add_delta_listener(self)
        for neighbour in broker._links:
            self.add_neighbour(neighbour)

    def add_neighbour(self, neighbour: str) -> None:
        """Give *neighbour* an empty state, unless it has one."""
        if neighbour not in self.states:
            broker = self.broker
            self.states[neighbour] = NeighbourForwardingState(
                broker.filter_caches, broker.strategy.delta_reduction
            )

    def handle_subscribe(self, message: Subscribe, from_destination: str) -> None:
        self.broker.subscription_table.add(message.filter, from_destination, message.subject)
        self.refresh_all(exclude=from_destination)

    def handle_unsubscribe(self, message: Unsubscribe, from_destination: str) -> None:
        self.broker.subscription_table.remove(message.filter, from_destination, message.subject)
        self.refresh_all(exclude=from_destination)

    def handle_advertise(self, message: Advertise, from_destination: str) -> None:
        broker = self.broker
        broker.advertisement_table.add(message.filter, from_destination, message.subject)
        self._flood_advertisement(message, from_destination, withdraw=False)
        if from_destination in broker._links:
            # Subscriptions may now become forwardable toward the advertiser.
            broker.refresh_forwarding(from_destination)
            broker.logical.reforward_subscriptions(toward=from_destination)

    def handle_unadvertise(self, message: Unadvertise, from_destination: str) -> None:
        broker = self.broker
        broker.advertisement_table.remove(message.filter, from_destination, message.subject)
        self._flood_advertisement(message, from_destination, withdraw=True)
        if from_destination in broker._links:
            broker.refresh_forwarding(from_destination)

    def _flood_advertisement(self, message: Any, exclude: str, withdraw: bool) -> None:
        """Pass an (un)advertisement on to every neighbour but *exclude* that lacks (holds) it."""
        broker = self.broker
        filter_ = message.filter
        key = (filter_.key(), message.subject)
        for neighbour in broker.neighbours():
            advertised = self.states[neighbour].advertised
            if neighbour == exclude or (key in advertised) != withdraw:
                continue
            if withdraw:
                del advertised[key]
            else:
                advertised[key] = filter_
            broker._links[neighbour].send(
                type(message)(filter_, subject=broker.name, subscription_id=message.subject)
            )

    # ------------------------------------------------------------------
    # Table listeners
    # ------------------------------------------------------------------
    def advertisement_rows_changed(self, destination: Optional[str]) -> None:
        """Advertisement rows of *destination* (``None``: of every one) changed.

        Advertisements received from ``N`` gate which filters enter the
        input of ``N``'s state, and the per-filter verdicts may flip
        wholesale, so the verdicts are forgotten and the state is rebuilt
        from the table on its next refresh.
        """
        for neighbour, state in self.states.items():
            if destination is None or neighbour == destination:
                state.valid = False
                state.verdicts.clear()

    def invalidate(self) -> None:
        """Have every neighbour's state rebuilt from the table on its next refresh."""
        for state in self.states.values():
            state.valid = False

    # Subscription-table delta listener (see RoutingTable.add_delta_listener):
    # applies row-level changes directly to the per-neighbour desired sets,
    # making routing changes O(affected entries).
    def row_subject_added(self, row: Any, subject: str, created_row: bool) -> None:
        if isinstance(row.filter, MatchNone) or self.broker.logical.is_logical_row(row, subject):
            return
        filter_ = row.filter
        destination = row.destination
        for neighbour, state in self.states.items():
            if neighbour == destination or not state.valid:
                continue
            if self.may_forward(neighbour, filter_):
                state.add_contribution(filter_, subject, row.seq)

    def row_subjects_removed(self, row: Any, subjects: Sequence[str], removed_row: bool) -> None:
        if isinstance(row.filter, MatchNone):
            return
        is_logical_row = self.broker.logical.is_logical_row
        plain = [subject for subject in subjects if not is_logical_row(row, subject)]
        if not plain:
            return
        filter_ = row.filter
        filter_key = filter_.key()
        destination = row.destination
        for neighbour, state in self.states.items():
            if neighbour == destination or not state.valid:
                continue
            if not self.may_forward(neighbour, filter_):
                continue
            for subject in plain:
                state.remove_contribution(filter_key, subject, row.seq)

    #: Delta listener: the whole subscription table changed at once.
    table_reset = invalidate

    # ------------------------------------------------------------------
    # The refresh primitive
    # ------------------------------------------------------------------
    def refresh_all(self, exclude: Optional[str] = None) -> None:
        """Refresh every neighbour but *exclude*, each through ``Broker.refresh_forwarding``."""
        broker = self.broker
        for neighbour in broker.neighbours():
            if neighbour != exclude:
                broker.refresh_forwarding(neighbour)

    def refresh(self, neighbour: str) -> None:
        """Bring the subscriptions forwarded to *neighbour* in line with the tables."""
        if neighbour not in self.broker._links:
            # Not a neighbour (e.g. a locally attached client named as the
            # source of a replayed log entry): nothing is forwarded there.
            return
        state = self.states[neighbour]
        if state.settled():
            return
        if not state.valid:
            self.rebuild(neighbour)
        elif state.order_dirty:
            # Canonical input positions shifted (a filter's first
            # contributing row died while later rows survived) or a
            # merging state's input filters changed structurally:
            # re-reduce from the maintained entries — no table scan.
            state.rebuild_reduction()
        self.emit(neighbour, *state.diff())

    def emit(
        self,
        neighbour: str,
        to_add: Dict[Tuple[Any, str], Filter],
        to_remove: Dict[Tuple[Any, str], Filter],
    ) -> None:
        """Send *neighbour* the Subscribes of *to_add* and the Unsubscribes of *to_remove*."""
        link = self.broker._links[neighbour]
        forwarded = self.states[neighbour].forwarded
        # Subscribe before unsubscribing so covering replacements never
        # leave a gap in which matching notifications would not be routed.
        for (filter_key, subject), filter_ in _in_emission_order(to_add):
            forwarded[(filter_key, subject)] = filter_
            link.send(Subscribe(filter_, subject=subject))
        for (filter_key, subject), filter_ in _in_emission_order(to_remove):
            del forwarded[(filter_key, subject)]
            link.send(Unsubscribe(filter_, subject=subject))

    def rebuild(self, neighbour: str) -> None:
        """Rebuild a neighbour's state from one subscription-table scan.

        The gating here is the one :meth:`row_subject_added` /
        :meth:`row_subjects_removed` apply row by row: a ``MatchNone``
        filter accepts nothing, so forwarding it would only cost
        administrative traffic; the rows of location-dependent
        subscriptions are propagated by their own protocol
        (``LocationDependentSubscribe`` / ``LocationUpdate``); and a filter
        only travels toward a neighbour that advertised something
        overlapping it.
        """
        broker = self.broker
        logical = broker.logical
        no_logical = not logical.states

        def plain_subjects(row: Any) -> Optional[Iterable[str]]:
            if row.destination == neighbour or isinstance(row.filter, MatchNone):
                return None
            if no_logical:
                subjects = row.subjects
            else:
                subjects = [
                    subject for subject in row.subjects if not logical.is_logical_row(row, subject)
                ]
                if not subjects:
                    return None
            return subjects if self.may_forward(neighbour, row.filter) else None

        # A flooding broker forwards no subscription: no row contributes.
        rows = () if broker.strategy.floods_notifications else broker.subscription_table.entries()
        self.states[neighbour].rebuild_from_rows(rows, plain_subjects)

    def may_forward(self, neighbour: str, filter_: Filter) -> bool:
        """Whether *filter_* may travel toward *neighbour*.

        Without advertisements it always may; with them, only toward a
        neighbour an overlapping advertisement was received from.  That
        verdict is memoised in the neighbour's ``verdicts``, which
        :meth:`advertisement_rows_changed` clears whenever the neighbour's
        advertisement rows change, so it can never go stale.  Memo misses
        are answered by the dispatch plan's per-neighbour overlap index.
        """
        broker = self.broker
        if not broker.config.use_advertisements:
            return True
        verdicts = self.states[neighbour].verdicts
        key = filter_.key()
        verdict = verdicts.get(key)
        if verdict is None:
            broker.counters["advert_gate_misses"] += 1
            if len(verdicts) >= self._memo_limit:
                verdicts.clear()
            verdict = verdicts[key] = broker._dispatch_plan.advertised_via(neighbour, filter_)
        else:
            broker.counters["advert_gate_hits"] += 1
        return verdict

    def snapshot(self) -> Tuple[_SentPairs, _SentPairs]:
        """Per neighbour, the (filter, subject) pairs of its Subscribes and its Advertises."""
        states = self.states.items()
        return (
            {name: [(f, s) for (_, s), f in state.forwarded.items()] for name, state in states},
            {name: [(f, s) for (_, s), f in state.advertised.items()] for name, state in states},
        )

    def restore(self, subscriptions: _SentPairs, advertisements: _SentPairs) -> None:
        """Undo :meth:`snapshot`; every decoded filter gives way to the network's live one."""
        intern = self.broker.filter_caches.intern
        for neighbour, pairs in subscriptions.items():
            self.states[neighbour].forwarded = {(f.key(), s): intern(f) for f, s in pairs}
        for neighbour, pairs in advertisements.items():
            self.states[neighbour].advertised = {(f.key(), s): intern(f) for f, s in pairs}

    #: This component's rows of ``Broker._MESSAGE_TABLE`` (see there).
    MESSAGES = {
        Subscribe: ("admin_received", True, True, "forwarding", handle_subscribe),
        Unsubscribe: ("admin_received", True, True, "forwarding", handle_unsubscribe),
        Advertise: ("admin_received", True, True, "forwarding", handle_advertise),
        Unadvertise: ("admin_received", True, True, "forwarding", handle_unadvertise),
    }
