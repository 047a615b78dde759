"""The routing table data structure.

A routing table stores entries ``(filter, destination, subjects)``:

* ``filter`` — the subscription filter;
* ``destination`` — the neighbour broker or local client the filter was
  received from (notifications matching the filter are forwarded there);
* ``subjects`` — the identifiers (client ids or downstream broker names)
  on whose behalf the filter is registered.  Tracking subjects lets the
  physical-mobility protocol find and remove exactly the entries belonging
  to a relocated client without disturbing identical filters that other
  clients registered.

The same structure is reused for the advertisement table.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.filters.filter import Filter


class RoutingEntry:
    """One (filter, destination) routing-table row with its subject set.

    ``seq`` is the row's monotonic creation sequence number (table-wide).
    Because rows are stored in an insertion-ordered dict, iterating
    :meth:`RoutingTable.entries` yields rows in increasing ``seq`` order;
    delta consumers use it as a stable position for order-sensitive
    reductions.
    """

    __slots__ = ("filter", "destination", "subjects", "seq")

    def __init__(self, filter: Filter, destination: str, subjects: Set[str], seq: int) -> None:
        self.filter = filter
        self.destination = destination
        self.subjects = subjects
        self.seq = seq

    def __repr__(self) -> str:
        return "RoutingEntry(filter={!r}, destination={!r}, subjects={!r}, seq={!r})".format(
            self.filter, self.destination, self.subjects, self.seq
        )

    def describe(self) -> str:
        """Human-readable rendering used in traces and debugging output."""
        return "{} -> {} (for {})".format(self.filter, self.destination, sorted(self.subjects))


class RoutingTable:
    """Routing table: the (filter, destination) rows, stored once.

    The table holds no matching index of its own.  Notifications are
    matched by the :class:`~repro.dispatch.plan.DispatchPlan` a broker
    attaches through :meth:`add_delta_listener`; the specification that
    plan is checked against is the brute force over :meth:`entries` in
    ``tests/oracles/matching.py``.

    The table publishes its changes so dependents can maintain incremental
    state: every observable mutation invokes the registered change
    listeners with the affected destination (``None`` for whole-table
    operations such as :meth:`clear`), and row-level delta listeners
    receive the exact mutation.  Brokers listen coarsely on the
    advertisement table (a change to the rows of destination ``D`` re-gates
    what is forwarded to ``D``) and row by row on the subscription table
    (each row feeds the forwarding state of every neighbour but its own
    destination).
    """

    def __init__(self) -> None:
        # row key (see _row_key) -> entry
        self._entries: Dict[Tuple[bool, Any, str], RoutingEntry] = {}
        # change publication
        self._listeners: List[Any] = []
        self._delta_listeners: List[Any] = []
        self._row_seq = 0

    @staticmethod
    def _row_key(filter_: Filter, destination: str) -> Tuple[bool, Any, str]:
        return (type(filter_).__name__ == "MatchNone", filter_.key(), destination)

    # -- change publication ------------------------------------------------
    @property
    def row_seq(self) -> int:
        """The highest row creation sequence number ever assigned."""
        return self._row_seq

    def advance_row_seq(self, row_seq: int) -> None:
        """Fast-forward the row numbering (snapshot restore).

        Rows created *and removed* before a snapshot consumed sequence
        numbers that no surviving row carries; restoring only the
        surviving rows would hand those numbers out again, diverging from
        a never-crashed table.  The snapshot therefore records the raw
        counter and the restore path replays it here.
        """
        self._row_seq = max(self._row_seq, int(row_seq))

    def add_listener(self, listener) -> None:
        """Register ``listener(destination)`` to be called on every change.

        *destination* is the destination whose rows changed, or ``None``
        when the whole table changed at once (:meth:`clear`).
        """
        self._listeners.append(listener)

    def add_delta_listener(self, listener) -> None:
        """Register a row-level delta listener.

        Unlike the coarse :meth:`add_listener` callbacks (which only learn
        the affected destination), delta listeners receive the exact row
        mutation and can maintain derived state in O(change).  Both broker
        tables publish these deltas: the subscription table feeds the
        per-neighbour forwarding states (:mod:`repro.broker.forwarding`)
        *and* the dispatch plan's predicate index, the advertisement table
        feeds the plan's per-neighbour overlap indexes (see
        :mod:`repro.dispatch.plan`).

        * ``listener.row_subject_added(entry, subject, created_row)`` —
          *subject* was registered on *entry*; ``created_row`` is ``True``
          when the row itself is new.
        * ``listener.row_subjects_removed(entry, subjects, removed_row)``
          — the given *subjects* were dropped from *entry*;
          ``removed_row`` is ``True`` when the row disappeared entirely.
        * ``listener.table_reset()`` — the whole table changed at once
          (:meth:`clear`); derived state must be rebuilt.
        """
        self._delta_listeners.append(listener)

    def _notify(self, destination: Optional[str]) -> None:
        for listener in self._listeners:
            listener(destination)

    # -- mutation ---------------------------------------------------------
    def add(self, filter_: Filter, destination: str, subject: str) -> bool:
        """Register *filter_* for *destination* on behalf of *subject*.

        Returns ``True`` when a new (filter, destination) row was created.
        """
        key = self._row_key(filter_, destination)
        entry = self._entries.get(key)
        if entry is not None:
            if subject not in entry.subjects:
                entry.subjects.add(subject)
                for listener in self._delta_listeners:
                    listener.row_subject_added(entry, subject, False)
                self._notify(destination)
            return False
        self._row_seq += 1
        entry = RoutingEntry(
            filter=filter_, destination=destination, subjects={subject}, seq=self._row_seq
        )
        self._entries[key] = entry
        for listener in self._delta_listeners:
            listener.row_subject_added(entry, subject, True)
        self._notify(destination)
        return True

    def remove(self, filter_: Filter, destination: str, subject: Optional[str] = None) -> bool:
        """Remove *subject*'s registration of (filter, destination).

        When *subject* is ``None`` the whole row is removed regardless of
        its remaining subjects.  The row disappears once its subject set is
        empty.  Returns ``True`` when the row was removed entirely.
        """
        key = self._row_key(filter_, destination)
        entry = self._entries.get(key)
        if entry is None:
            return False
        if subject is not None:
            if subject not in entry.subjects:
                return False
            entry.subjects.discard(subject)
            if entry.subjects:
                for listener in self._delta_listeners:
                    listener.row_subjects_removed(entry, (subject,), False)
                self._notify(destination)
                return False
            dying_subjects: Tuple[str, ...] = (subject,)
        else:
            dying_subjects = tuple(entry.subjects)
            entry.subjects.clear()
        del self._entries[key]
        for listener in self._delta_listeners:
            listener.row_subjects_removed(entry, dying_subjects, True)
        self._notify(destination)
        return True

    def remove_subject(self, subject: str) -> List[RoutingEntry]:
        """Remove *subject* from every row; return the rows that disappeared."""
        removed: List[RoutingEntry] = []
        for key in list(self._entries):
            entry = self._entries[key]
            if subject in entry.subjects:
                entry.subjects.discard(subject)
                row_removed = not entry.subjects
                if row_removed:
                    removed.append(entry)
                    del self._entries[key]
                for listener in self._delta_listeners:
                    listener.row_subjects_removed(entry, (subject,), row_removed)
                self._notify(entry.destination)
        return removed

    def remove_destination(self, destination: str) -> List[RoutingEntry]:
        """Remove every row pointing at *destination*; return the removed rows."""
        removed: List[RoutingEntry] = []
        for key in list(self._entries):
            entry = self._entries[key]
            if entry.destination == destination:
                removed.append(entry)
                del self._entries[key]
                for listener in self._delta_listeners:
                    listener.row_subjects_removed(entry, tuple(entry.subjects), True)
        if removed:
            self._notify(destination)
        return removed

    def restore_row(
        self, filter_: Filter, destination: str, subjects: Sequence[str], seq: int
    ) -> RoutingEntry:
        """Recreate one row with a pinned creation *seq* (crash recovery).

        Snapshot restore must reproduce the pre-crash table exactly —
        including each row's creation sequence number, which delta
        consumers use as a stable position — so :meth:`add`'s automatic
        numbering cannot be used.  The row is created with the recorded
        *seq* before any delta listener observes it, then every subject
        is published through the normal ``row_subject_added`` delta so
        derived structures (dispatch plan, forwarding caches) are rebuilt
        the same way live mutations build them.  Rows must be restored in
        their original insertion order.
        """
        key = self._row_key(filter_, destination)
        if key in self._entries:
            raise ValueError(
                "cannot restore duplicate row ({}, {})".format(filter_, destination)
            )
        if not subjects:
            raise ValueError("a restored row needs at least one subject")
        entry = RoutingEntry(
            filter=filter_, destination=destination, subjects=set(), seq=int(seq)
        )
        self._entries[key] = entry
        self._row_seq = max(self._row_seq, entry.seq)
        created = True
        for subject in subjects:
            entry.subjects.add(subject)
            for listener in self._delta_listeners:
                listener.row_subject_added(entry, subject, created)
            created = False
        self._notify(destination)
        return entry

    def clear(self) -> None:
        """Remove every row."""
        had_entries = bool(self._entries)
        self._entries.clear()
        if had_entries:
            for listener in self._delta_listeners:
                listener.table_reset()
            self._notify(None)

    # -- queries -----------------------------------------------------------
    def entries(self) -> List[RoutingEntry]:
        """All rows (copy of the list, entries shared)."""
        return list(self._entries.values())

    def entries_for_subject(self, subject: str) -> List[RoutingEntry]:
        """All rows registered on behalf of *subject*."""
        return [e for e in self._entries.values() if subject in e.subjects]

    def find_entry(self, filter_: Filter, destination: str) -> Optional[RoutingEntry]:
        """The exact (filter, destination) row, or ``None``."""
        return self._entries.get(self._row_key(filter_, destination))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RoutingEntry]:
        return iter(list(self._entries.values()))
