"""Subscription and advertisement forwarding (Section 2.2), one record per neighbour.

:class:`SubscriptionForwarding` is the broker component that decides what
each neighbour is sent.  A refresh needs, per neighbour, the *desired*
set of (filter, subject) pairs that should be registered there.  The
neighbour's :class:`NeighbourForwardingState` — also the record of what
was sent there and of which filters may travel there — applies the
routing table's row-level deltas (see
:meth:`repro.routing.table.RoutingTable.add_delta_listener`) directly to
refcounted desired pairs, so a routing change costs O(affected entries),
not O(table).  What the state must hold after any sequence of deltas is
written down from scratch — table scan, gating, Section 2.2 reduction,
first-cover assignment — in ``tests/oracles/forwarding.py``.

The state stores each fact once.  Per neighbour it keeps:

* the gated *input entries* — one per distinct filter key, holding the
  (row ``seq``, plain subject) of every contribution of a table row, at
  the canonical position of its first contributing row's ``seq`` (the
  order a scan of the table sees), and the key of its *cover*: for every
  input, the first selected filter (in canonical order) that covers it.
  A selected input is its own cover, so the selection — exactly the
  specification's minimal cover set of the inputs in canonical order, or
  every input for non-reducing strategies — is no separate record;
* the dropped members of each cover that has any;
* the desired pairs ``(cover key, subject)``, each counted once per
  contribution carrying it, plus the set of pairs that changed since the
  last flush so the refresh emits messages in O(changes).  A pair's
  filter is read from its cover key when the diff runs.

In the covering mode two steps keep selection and assignment equal to
the specification, following the input-based semantics of its minimal
cover set (a filter is dropped iff another input filter strictly covers
it, or an *earlier* equivalent one does):

* **place** an input at its position, wherever that is — it is dropped
  under its first selected cover if that cover strictly covers it or
  comes earlier; otherwise it joins the selection, evicts the selected
  filters it covers and takes over every dropped input whose first cover
  it now is;
* **unplace** an input — a dropped one just leaves its cover; a selected
  one leaves the selection with its members, which are placed again, in
  canonical order.

A filter that joins the input is placed, one that leaves it unplaced.
One whose position moves — its first contributing row died while later
rows survive, as on every broker of a Section 4.1 relocation path, or an
old row gained its first plain subject — is marked *shifted*: the state
stays the specification of its inputs at their old positions (a dead
row's ``seq`` is never reused), and the next refresh unplaces it and
places it again, ahead of its members.  A rebuild places every entry in
canonical order.  Each step finds the filters it has to test — who
covers this one, whom does it cover — through a two-way
:class:`~repro.filters.covering_cache.CoveringIndex` over the input
entries, the one record of which input stands at which position, so its
cost follows the structurally comparable entries, not the size of the
selection.  Advertisement changes and logical-mobility changes can flip
the per-filter gating wholesale, so they invalidate the state and the
next refresh rebuilds it from one table scan.

The advertisement gate lives here too.  Each state memoises its
verdicts; a miss walks the advertisement table and tests the rows
received from the neighbour with
:func:`~repro.filters.covering.filters_may_overlap`, and one
advertisement-table delta listener clears the memo whenever those rows
change.  The table is the one record of what a neighbour advertised,
and it is short: at most two rows per broker in every end-to-end
benchmark workload.

**Merging strategies** reduce with the specification's greedy merge:
:func:`~repro.filters.merging.merge_filters` over the canonical input
order, run through the network's pair-merge memo
(:class:`~repro.filters.merging.FilterCaches`).  Its products are the
selection — the specification's covering pass over them keeps every one,
since no product covers another — and each input is assigned the selected
filter equal to it, else the first one covering it.  Because greedy
merging is order-dependent and non-local (one changed input can
repartition several groups), any structural input change or position
shift marks the state for a re-merge and the next refresh re-reduces from
the maintained entries — no table scan, and thanks to the pair-merge and
covering memos only pairs involving changed filters (or the new merge
products they create) are evaluated raw.  Subject-only changes keep the
assignment and update the desired pairs in O(1) exactly like the covering
mode.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.filters.covering import filters_may_overlap
from repro.filters.covering_cache import CoveringIndex
from repro.filters.filter import Filter, MatchNone
from repro.filters.merging import FilterCaches, PairMemo, merge_filters
from repro.messages.admin import Advertise, Subscribe, Unadvertise, Unsubscribe


class _InputEntry:
    """One distinct input filter: its contributions and its cover."""

    __slots__ = ("filter", "key", "pos", "cover", "rows", "subjects")

    def __init__(self, filter_: Filter, key: Any, rows: List[int], subjects: List[str]) -> None:
        self.filter = filter_
        self.key = key
        #: Canonical position: the smallest ``seq`` of a contributing row.
        self.pos = min(rows)
        #: Key of the assigned cover — the entry's own key when it is
        #: selected — or ``None`` while it is not assigned.
        self.cover: Any = None
        #: The row ``seq`` and the plain subject of each contribution, as
        #: two multisets: a row contributes once per plain subject, and a
        #: subject once per row carrying it.
        self.rows = rows
        self.subjects = subjects


class NeighbourForwardingState:
    """Delta-maintained desired forwarding set for one neighbour.

    *reduction* is the strategy's
    :attr:`~repro.routing.strategies.RoutingStrategy.delta_reduction`;
    the reducing modes run their covering (and merge-pair) tests through
    the network's shared memos, *caches*.
    """

    __slots__ = (
        "covers",
        "merge_pairs",
        "cover_filters",
        "valid",
        "remerge",
        "shifted",
        "full_diff",
        "entries",
        "members",
        "pair_refs",
        "pending",
        "forwarded",
        "advertised",
        "verdicts",
        "_index",
    )

    def __init__(self, caches: FilterCaches, reduction: str) -> None:
        #: The memoised covering test ``covers(covering, covered)``, or
        #: ``None`` for strategies that forward every filter.  The bound
        #: method: calling it skips the instance-call slot on a hot path.
        self.covers: Optional[Callable[[Filter, Filter], bool]] = (
            None if reduction == "none" else caches.covering.__call__
        )
        #: The network's pair-merge memo (merging strategies only); the
        #: selection is then the merged filters, and covers may be
        #: synthesised filters that are not input entries.
        self.merge_pairs: Optional[PairMemo] = (
            caches.merge_pairs if reduction == "merging" else None
        )
        #: Merging only: cover filter key -> cover filter (a merged filter,
        #: or an input left without a cover), in selection order.
        self.cover_filters: Dict[Any, Filter] = {}
        #: ``False`` -> the gating inputs may have changed wholesale; the
        #: next refresh must rebuild from a table scan.
        self.valid = False
        #: Merging only: the input filters or their order changed, so the
        #: next refresh re-merges from the kept entries.
        self.remerge = False
        #: Covering only: the entries whose first contributing row changed
        #: since they were placed, by key, in the order they shifted; the
        #: next refresh places each again at its new position.
        self.shifted: Dict[Any, _InputEntry] = {}
        #: The next flush must diff desired against forwarded completely
        #: (after rebuilds).
        self.full_diff = True
        self.entries: Dict[Any, _InputEntry] = {}
        #: Covering only: selected cover key -> keys of the inputs dropped
        #: under it, for the covers that have any.
        self.members: Dict[Any, Set[Any]] = {}
        #: Desired pair ``(cover key, subject)`` -> number of contributions
        #: carrying it; the pairs the neighbour should hold.
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
        #: CoveringIndex over the input entries, by canonical position, so
        #: every covering question placing an entry asks — who covers this
        #: filter, whom does it cover — only tests the structurally
        #: comparable entries.  It spans *all* inputs, not just the
        #: selection, because a newly selected filter takes over dropped
        #: members of other covers, which a selection index cannot see.
        #: Maintained in the covering mode only.
        self._index: Optional[CoveringIndex] = CoveringIndex() if reduction == "covering" else None

    # ------------------------------------------------------------------
    # Desired-pair bookkeeping
    # ------------------------------------------------------------------
    @property
    def desired(self) -> Dict[Tuple[Any, str], Filter]:
        """``{(cover key, subject): cover filter}``: what the neighbour should hold."""
        cover_filter = self._cover_filter
        return {pair: cover_filter(pair[0]) for pair in self.pair_refs}

    def _cover_filter(self, cover_key: Any) -> Filter:
        """The filter forwarded for *cover_key* (an entry, or a merged filter)."""
        if self.merge_pairs is not None:
            return self.cover_filters[cover_key]
        return self.entries[cover_key].filter

    def _pair_add(self, cover_key: Any, subject: str) -> None:
        pair = (cover_key, subject)
        count = self.pair_refs.get(pair, 0)
        self.pair_refs[pair] = count + 1
        if count == 0:
            self.pending.add(pair)

    def _pair_remove(self, cover_key: Any, subject: str) -> None:
        pair = (cover_key, subject)
        count = self.pair_refs[pair] - 1
        if count:
            self.pair_refs[pair] = count
        else:
            del self.pair_refs[pair]
            self.pending.add(pair)

    def _assign(self, entry: _InputEntry, cover_key: Any) -> None:
        """Assign the unassigned *entry* to *cover_key*, pairs included."""
        entry.cover = cover_key
        if cover_key is not entry.key:
            dropped = self.members.get(cover_key)
            if dropped is None:
                self.members[cover_key] = {entry.key}
            else:
                dropped.add(entry.key)
        for subject in entry.subjects:
            self._pair_add(cover_key, subject)

    def _unassign(self, entry: _InputEntry) -> Any:
        """Detach *entry* from its cover, pairs included; return the cover's key."""
        cover_key = entry.cover
        entry.cover = None
        if cover_key is not entry.key:
            dropped = self.members[cover_key]
            dropped.discard(entry.key)
            if not dropped:
                del self.members[cover_key]
        for subject in entry.subjects:
            self._pair_remove(cover_key, subject)
        return cover_key

    # ------------------------------------------------------------------
    # Delta application (the O(change) hot path)
    # ------------------------------------------------------------------
    def add_contribution(self, filter_: Filter, subject: str, seq: int) -> None:
        """One plain subject of a table row (with creation seq) was added."""
        key = filter_.key()
        entry = self.entries.get(key)
        if entry is None:
            # Placed with its one contribution, pairs included.
            self.entries[key] = entry = _InputEntry(filter_, key, [seq], [subject])
            self._enter(entry)
            return
        if seq < entry.pos:
            # An old row gained its first plain subject: the filter moves
            # to that row's position.
            self._shift(entry, seq)
        entry.rows.append(seq)
        entry.subjects.append(subject)
        if not self.remerge:
            # A pending re-merge rebuilds the desired pairs wholesale (and
            # the assignment may not know this entry yet), so eager pair
            # maintenance only runs while the assignment is current.
            self._pair_add(entry.cover, subject)

    def remove_contribution(self, filter_key: Any, subject: str, seq: int) -> None:
        """One plain subject of a table row was removed."""
        entry = self.entries.get(filter_key)
        if entry is None or seq not in entry.rows or subject not in entry.subjects:
            # Contribution unknown (state was rebuilt around this event);
            # play safe and rebuild from the table.
            self.valid = False
            return
        entry.subjects.remove(subject)
        if not self.remerge:
            self._pair_remove(entry.cover, subject)
        rows = entry.rows
        rows.remove(seq)
        if not rows:
            self._leave(entry)
            del self.entries[filter_key]
        elif seq == entry.pos and seq not in rows:
            # The first contributing row died while later rows survive.
            self._shift(entry, min(rows))

    def _enter(self, entry: _InputEntry) -> None:
        """*entry* joined the input: index and place it."""
        if self.merge_pairs is not None:
            # A new input filter can repartition the greedy merge in
            # non-local ways; re-merge from the entries at the next
            # refresh (the merge-pair cache keeps it O(changed pairs)).
            self.remerge = True
            return
        if self._index is not None:
            self._index.add(entry.pos, entry.filter, entry)
        self._place(entry)

    def _leave(self, entry: _InputEntry) -> None:
        """*entry* left the input: unplace it and place its members again."""
        if self.merge_pairs is not None:
            self.remerge = True
            return
        self.shifted.pop(entry.key, None)
        for member in self._unplace(entry):
            self._place(member)

    def _shift(self, entry: _InputEntry, pos: int) -> None:
        """*entry*'s canonical position moved to *pos* (covering: at the next refresh)."""
        if self._index is not None:
            self.shifted[entry.key] = entry
            return
        # Simple routing selects every input wherever it stands; greedy
        # merging is order-dependent, so it re-merges.
        entry.pos = pos
        if self.merge_pairs is not None:
            self.remerge = True

    def place_shifted(self) -> None:
        """Unplace each shifted entry and place it at its new position, then its members.

        It still covers them, so most fall back under it; placed first, the
        ones it leaves uncovered would be selected only to be evicted.
        """
        for entry in self.shifted.values():
            pos = min(entry.rows)
            if pos == entry.pos:
                continue
            members = self._unplace(entry)
            entry.pos = pos
            self._index.add(pos, entry.filter, entry)
            self._place(entry)
            for member in members:
                self._place(member)
        self.shifted = {}

    # ------------------------------------------------------------------
    # Selection maintenance
    # ------------------------------------------------------------------
    def _first_cover(self, filter_: Filter) -> Optional[Any]:
        """Key of the first selected filter (canonical order) covering *filter_*.

        Only the structurally comparable inputs are tested (a sound
        superset of the real coverers, see
        :class:`~repro.filters.covering_cache.CoveringIndex`), in ascending
        position, which *is* selection order, so the pruned walk returns
        exactly what a scan of the selection would.  Covering mode only.
        """
        covers = self.covers
        index = self._index
        for candidate in index.items_at(index.candidate_positions(filter_)):
            if candidate.cover is candidate.key and covers(candidate.filter, filter_):
                return candidate.key
        return None

    def _place(self, entry: _InputEntry) -> None:
        """Put the indexed, unassigned input *entry* at its canonical position.

        Inputs that are indexed but not assigned (the members an
        :meth:`_unplace` has yet to place again) are not there yet for
        this step.  Positions are compared before a covering question is
        asked, so an append — the entry behind every other input — asks
        no more than "who covers it" and "whom does it evict".
        """
        key = entry.key
        covers = self.covers
        if covers is None:
            self._assign(entry, key)
            return
        entries = self.entries
        pos = entry.pos
        filter_ = entry.filter
        cover_key = self._first_cover(filter_)
        if cover_key is not None:
            cover = entries[cover_key]
            if cover.pos < pos or not covers(filter_, cover.filter):
                # Strictly covered, or an earlier equivalent is selected.
                self._assign(entry, cover_key)
                return
        # Selected: it evicts the selected filters it covers (strictly, or
        # later equivalents) and takes over every dropped input it covers
        # whose first cover comes after it.
        evicted: List[_InputEntry] = []
        taken: List[_InputEntry] = []
        index = self._index
        for other in index.items_at(index.covered_candidate_positions(filter_)):
            if other.cover is other.key:
                if covers(filter_, other.filter):
                    evicted.append(other)
            elif other.cover is not None and entries[other.cover].pos > pos:
                if covers(filter_, other.filter):
                    taken.append(other)
        for other in evicted:
            # Out of the selection before any first cover is looked up.
            self._unassign(other)
        self._assign(entry, key)
        for member in taken:
            self._unassign(member)
            self._assign(member, key)
        members = self.members
        for other in evicted:
            # An evicted cover and its members are covered by this filter
            # (covering is transitive).  Of a cover behind it only the
            # cover itself is left (the take-over moved the rest); a
            # member of one ahead of it may have an earlier first cover.
            later = other.pos > pos
            orphans = [entries[member] for member in members.get(other.key, ())]
            for member in orphans:
                self._unassign(member)
            orphans.append(other)
            for member in orphans:
                self._assign(member, key if later else self._first_cover(member.filter))

    def _unplace(self, entry: _InputEntry) -> List[_InputEntry]:
        """Take *entry* out of the index, selection and assignment, pairs included.

        A dropped entry only leaves its cover: whoever covered it still
        stands, so nothing else changes.  A selected entry leaves the
        selection and takes its members with it; they are returned, in
        canonical order, for the caller to :meth:`_place` again.
        """
        key = entry.key
        if self._index is not None:
            self._index.remove(entry.pos)
        if self._unassign(entry) is not key:
            return []
        entries = self.entries
        members = sorted(
            (entries[member] for member in self.members.get(key, ())), key=attrgetter("pos")
        )
        for member in members:
            self._unassign(member)
        return members

    # ------------------------------------------------------------------
    # Rebuilds
    # ------------------------------------------------------------------
    def rebuild_from_rows(
        self,
        rows: Iterable[Any],
        plain_subjects: Callable[[Any], Optional[Iterable[str]]],
    ) -> None:
        """Rebuild the gated input from a table scan, then reduce it.

        *rows* are :class:`~repro.routing.table.RoutingEntry` objects in
        table (seq) order; *plain_subjects* returns the contributing
        subjects of a row, or a false value when the row is excluded
        (wrong destination, gated out, MatchNone, all-logical).
        """
        entries: Dict[Any, _InputEntry] = {}
        for row in rows:
            subjects = plain_subjects(row)
            if not subjects:
                continue
            subjects = list(subjects)
            seqs = [row.seq] * len(subjects)
            key = row.filter.key()
            entry = entries.get(key)
            if entry is None:
                entries[key] = _InputEntry(row.filter, key, seqs, subjects)
            else:
                entry.rows += seqs
                entry.subjects += subjects
        self.entries = entries
        self.valid = True
        if self.merge_pairs is not None:
            self.rebuild_reduction()
            return
        self._reset()
        # Rows come in seq order, so the entries are in canonical order:
        # each is placed behind all the others.
        for entry in entries.values():
            self._enter(entry)
        self.pending.clear()

    def _reset(self) -> None:
        """Forget index, shifts, selection, assignment and pairs; the next diff is in full."""
        if self._index is not None:
            self._index = CoveringIndex()
        self.shifted = {}
        self.members = {}
        self.cover_filters = {}
        self.pair_refs = {}
        self.full_diff = True

    def rebuild_reduction(self) -> None:
        """Re-run the merging reduction over the kept entries."""
        self._reset()
        self._rebuild_merging_reduction(sorted(self.entries.values(), key=attrgetter("pos")))
        self.pending.clear()
        self.remerge = False

    def _rebuild_merging_reduction(self, ordered: Sequence[_InputEntry]) -> None:
        """Merging-mode reduction: greedy merge → assignment.

        The merge products are the specification's selection: its
        covering pass over them keeps every one, since no product covers
        another (see :func:`~repro.filters.merging.merge_filters`).  The
        per-input cover is key equality over the whole selection first,
        then the first covering filter in selection order — with both
        tests run through the network's memos.
        """
        selected = merge_filters(
            [entry.filter for entry in ordered], pair_merge=self.merge_pairs.__call__
        )
        covers = self.covers
        cover_filters = self.cover_filters
        for filter_ in selected:
            cover_filters[filter_.key()] = filter_
        for entry in ordered:
            # Before this loop adds any, cover_filters is the selection.
            cover = cover_filters.get(entry.key)
            if cover is None:
                for candidate in selected:
                    if covers(candidate, entry.filter):
                        cover = candidate
                        break
                else:
                    # The reduction should always produce a cover (each
                    # input is a merge product or was merged into one,
                    # which covers it); fall back to the filter itself to
                    # stay correct.
                    cover = cover_filters[entry.key] = entry.filter
            cover_key = entry.cover = cover.key()
            for subject in entry.subjects:
                self._pair_add(cover_key, subject)

    # ------------------------------------------------------------------
    # Flush support
    # ------------------------------------------------------------------
    def settled(self) -> bool:
        """Nothing changed since the last flush: forwarded equals desired."""
        return self.valid and not (self.remerge or self.shifted or self.full_diff or self.pending)

    def diff(self) -> Tuple[Dict[Tuple[Any, str], Filter], Dict[Tuple[Any, str], Filter]]:
        """(to_add, to_remove) closing the gap from forwarded to desired.

        Looks at the pending pairs only — a writer of :attr:`forwarded`
        other than the flushes goes through :meth:`sent_behind` — except
        after a rebuild, which diffs in full.
        """
        forwarded = self.forwarded
        if self.full_diff:
            desired = self.desired
            to_add = {pair: filt for pair, filt in desired.items() if pair not in forwarded}
            to_remove = {
                pair: filt for pair, filt in forwarded.items() if pair not in desired
            }
            self.full_diff = False
        else:
            pair_refs = self.pair_refs
            to_add = {}
            to_remove = {}
            for pair in self.pending:
                if pair in pair_refs:
                    if pair not in forwarded:
                        to_add[pair] = self._cover_filter(pair[0])
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


class _ReceivedAdvertisements:
    """Advertisement-table delta listener: a change to a neighbour's rows resets its gate.

    Any change to the rows received from a neighbour may flip the gating
    wholesale, so that neighbour's state forgets its verdicts and is
    rebuilt from the table on its next refresh.  The rows of a local
    client have no state and gate nothing.
    """

    __slots__ = ("states",)

    def __init__(self, states: Dict[str, NeighbourForwardingState]) -> None:
        self.states = states

    def _changed(self, row: Any) -> None:
        state = self.states.get(row.destination)
        if state is not None:
            state.valid = False
            state.verdicts.clear()

    def row_subject_added(self, row: Any, subject: str, created_row: bool) -> None:
        self._changed(row)

    def row_subjects_removed(self, row: Any, subjects: Sequence[str], removed_row: bool) -> None:
        self._changed(row)


class SubscriptionForwarding:
    """One broker's subscription and advertisement forwarding (Section 2.2).

    ``states`` maps each neighbour ``N`` to its
    :class:`NeighbourForwardingState`, the one record of what ``N`` was
    sent (``forwarded``, ``advertised``), what it should hold (``desired``:
    the plain subscriptions of every other destination, gated by ``N``'s
    advertisements, reduced by the strategy) and which filters may travel
    there (its advertisement rows, memoised in ``verdicts``).  :meth:`refresh`
    emits exactly the ``Subscribe`` / ``Unsubscribe`` messages that close
    the gap; plain subscriptions,
    client attach / detach and the relocation protocol all reuse it, each
    through :meth:`~repro.broker.base.Broker.refresh_forwarding`.
    """

    #: Bound for each neighbour's verdict dict: it is cleared (not evicted
    #: entry-wise) when it grows past this, the policy of the network's
    #: covering and pair-merge memos (:class:`~repro.filters.merging.PairMemo`).
    _memo_limit = 65536

    def __init__(self, broker: Any) -> None:
        self.broker = broker
        self.states: Dict[str, NeighbourForwardingState] = {}
        broker.advertisement_table.add_delta_listener(_ReceivedAdvertisements(self.states))
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

    def handle_unsubscribe(self, message: Unsubscribe, from_destination: str) -> None:
        self.broker.subscription_table.remove(message.filter, from_destination, message.subject)

    def handle_advertise(self, message: Advertise, from_destination: str) -> None:
        broker = self.broker
        broker.advertisement_table.add(message.filter, from_destination, message.subject)
        self._flood_advertisement(message, from_destination, withdraw=False)
        if from_destination in broker._links:
            # Location-dependent subscriptions may now travel toward the advertiser.
            broker.logical.reforward_subscriptions(toward=from_destination)

    def handle_unadvertise(self, message: Unadvertise, from_destination: str) -> None:
        broker = self.broker
        broker.advertisement_table.remove(message.filter, from_destination, message.subject)
        self._flood_advertisement(message, from_destination, withdraw=True)

    def _flood_advertisement(self, message: Any, exclude: str, withdraw: bool) -> None:
        """Pass an (un)advertisement on to every neighbour but *exclude* that lacks (holds) it.

        The neighbour files the advertisements of every source under one
        subject, this broker's name, so a filter is sent there only with
        its first source and withdrawn only with its last.
        """
        broker = self.broker
        filter_ = message.filter
        filter_key = filter_.key()
        key = (filter_key, message.subject)
        for neighbour in broker.neighbours():
            advertised = self.states[neighbour].advertised
            if neighbour == exclude or (key in advertised) != withdraw:
                continue
            if withdraw:
                del advertised[key]
            other_source = any(held == filter_key for held, _ in advertised)
            if not withdraw:
                advertised[key] = filter_
            if other_source:
                continue
            flooded = type(message)(filter_, subject=broker.name, subscription_id=message.subject)
            broker._links[neighbour].send(broker.ids.stamp(flooded))

    # ------------------------------------------------------------------
    # Table listeners
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # The refresh primitive
    # ------------------------------------------------------------------
    def refresh_all(self) -> None:
        """Refresh every neighbour, each through ``Broker.refresh_forwarding``."""
        broker = self.broker
        for neighbour in broker.neighbours():
            broker.refresh_forwarding(neighbour)

    def refresh(self, neighbour: str) -> None:
        """Bring the subscriptions forwarded to *neighbour* in line with the tables."""
        state = self.states[neighbour]
        if state.settled():
            return
        if not state.valid:
            self.rebuild(neighbour)
        elif state.remerge:
            # A merging state's input filters or their order changed:
            # re-merge from the maintained entries — no table scan.
            state.rebuild_reduction()
        elif state.shifted:
            # Covering inputs moved: each is placed again — no re-reduction.
            state.place_shifted()
        self.emit(neighbour, *state.diff())

    def emit(
        self,
        neighbour: str,
        to_add: Dict[Tuple[Any, str], Filter],
        to_remove: Dict[Tuple[Any, str], Filter],
    ) -> None:
        """Send *neighbour* the Subscribes of *to_add* and the Unsubscribes of *to_remove*."""
        link = self.broker._links[neighbour]
        stamp = self.broker.ids.stamp
        forwarded = self.states[neighbour].forwarded
        # Subscribe before unsubscribing so covering replacements never
        # leave a gap in which matching notifications would not be routed.
        for pair, filter_ in _in_emission_order(to_add):
            forwarded[pair] = filter_
            link.send(stamp(Subscribe(filter_, subject=pair[1])))
        for pair, filter_ in _in_emission_order(to_remove):
            del forwarded[pair]
            link.send(stamp(Unsubscribe(filter_, subject=pair[1])))

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
        verdict is memoised in the neighbour's ``verdicts``, which the
        advertisement table's delta listener clears whenever the
        neighbour's advertisement rows change, so it can never go stale.
        A memo miss walks the advertisement table for the neighbour's rows.
        """
        broker = self.broker
        if not broker.config.use_advertisements:
            return True
        state = self.states[neighbour]
        verdicts = state.verdicts
        key = filter_.key()
        verdict = verdicts.get(key)
        if verdict is None:
            broker.counters["advert_gate_misses"] += 1
            if len(verdicts) >= self._memo_limit:
                verdicts.clear()
            verdict = verdicts[key] = any(
                row.destination == neighbour and filters_may_overlap(row.filter, filter_)
                for row in broker.advertisement_table
            )
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
