"""Per-broker compiled dispatch plan.

A :class:`DispatchPlan` is the broker's notification data plane: it owns a
:class:`~repro.dispatch.predicate_index.PredicateIndex` over the
subscription routing table and keeps it **incrementally** in sync through
the table's row-level delta listener
(:meth:`repro.routing.table.RoutingTable.add_delta_listener`) — no table
rescan on churn.  It is built lazily from the table on its first use;
:meth:`DispatchPlan.rebuild` is that one-scan path, which the
equivalence tests also drive directly.

:meth:`DispatchPlan.match` answers the forwarding question (which
neighbours) and the local-delivery question (which rows) in a single
counting pass returning the matched routing rows; the broker derives
both answers from it.  The index holds each distinct filter once, under
a fid; the plan keeps the filter's rows as one tuple, ``fid_rows[fid]``,
which is also the filter's reference count, and a match extends the
answer from those tuples directly.  The specification is the brute force
in ``tests/oracles/matching.py``.  The advertisement gate is not the
plan's: see :mod:`repro.dispatch.overlap`.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Tuple

from repro.dispatch.counting import BitsetMatcher
from repro.dispatch.predicate_index import PredicateIndex
from repro.dispatch.stats import DispatchStats
from repro.filters.filter import MatchNone


class DispatchPlan:
    """Compiled, delta-maintained matching state for one broker.

    *stats* is the owning broker's dispatch sink (a private one when
    omitted); the index and the matcher count their work in it, across
    rebuilds.
    """

    def __init__(self, subscription_table, stats: Optional[DispatchStats] = None) -> None:
        self._subscription_table = subscription_table
        self.index = PredicateIndex(stats)
        self.matcher = BitsetMatcher(self.index)
        #: fid -> the live rows of that filter, in the order they were
        #: created (``()`` for a free fid); the rows are the refcount.
        self.fid_rows: List[Tuple[Any, ...]] = []
        # (probe key, matched rows) of the last memoisable match, or None.
        self._last_match: Optional[Tuple[Any, Tuple[Any, ...]]] = None
        #: ``False`` until the first (lazy) build from the table.
        self.valid = False
        subscription_table.add_delta_listener(self)

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
    # Rebuild (first use)
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Rebuild the plan from one table scan."""
        self.index.clear()
        self.fid_rows = []
        self._last_match = None
        self.valid = True
        for row in self._subscription_table.entries():
            self._add_row(row)

    # ------------------------------------------------------------------
    # Subscription-table delta listener (see RoutingTable.add_delta_listener)
    # ------------------------------------------------------------------
    def row_subject_added(self, row, subject: str, created_row: bool) -> None:
        if created_row and self.valid:
            self._add_row(row)

    def row_subjects_removed(self, row, subjects, removed_row: bool) -> None:
        if not (removed_row and self.valid) or isinstance(row.filter, MatchNone):
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

    def _add_row(self, row) -> None:
        if isinstance(row.filter, MatchNone):
            return
        self._last_match = None
        fid = self.index.fid_of(row.filter)
        if fid is None:
            fid = self.index.add(row.filter)
            if fid == len(self.fid_rows):
                self.fid_rows.append(())
        self.fid_rows[fid] += (row,)
