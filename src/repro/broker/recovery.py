"""Broker crash recovery: routing-state snapshots plus an admin log.

A broker's volatile routing state is a deterministic function of the
administrative traffic it has processed, so crash recovery needs exactly
two persistent artifacts (both stored as canonical JSON, the encoding the
asyncio backend puts on real links, though neither is a link message):

* a :class:`RoutingSnapshot` — the subscription and advertisement tables
  row by row (filter, destination, subjects, pinned creation ``seq``)
  plus the per-neighbour forwarded (filter, subject) sets, taken at a
  quiescent instant, and
* an append-only log of :class:`AdminLogRecord` entries — every admin or
  mobility message that changed the broker's routing state *after* the
  snapshot, tagged with the destination it arrived from (a neighbour
  link or a locally attached client).

Restart decodes the snapshot (:meth:`~repro.broker.reliability.
Reliability.recover` recreates each row with its original ``seq`` via
:meth:`~repro.routing.table.RoutingTable.restore_row`, so every delta
consumer observes the rows exactly as the live mutations produced
them), then replays the log tail through the broker's normal dispatch
with its outgoing links swapped for :class:`ReplaySink` stubs — the
replay must mutate local state identically to the first execution
without re-emitting a single message.
The derived structures (``DispatchPlan``, ``NeighbourForwardingState``)
are *not* snapshotted: they are rebuilt lazily from the recovered tables
the first time they are consulted.

The store keeps bytes, not objects — the log is one buffer of journal
frames, and :meth:`RecoveryStore.snapshot` and
:meth:`RecoveryStore.log_tail` decode on demand — which is what makes
the crash-oracle test meaningful: everything a restart sees has survived
a full encode/decode round trip.  The journal writes each filter's text
once: the first record that carries a filter defines a number for it,
and later records write the number.  Numbers are never reused within a
store and a snapshot does not reset them, so a retained record may name
a filter that a dropped record defined; the store keeps every
definition its journal has written.

:class:`~repro.broker.reliability.Reliability` is one broker's user of
all this.  It imports this module when it first needs it (recovery
enabled without a store, a snapshot taken, a restart with a store), so
a broker that never journals never loads the store or its codec.
"""

from __future__ import annotations

import json
import os
from array import array
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.location_filter import LocationDependentSubscribe
from repro.filters.filter import Filter
from repro.filters.wire import filter_from_wire, filter_to_wire
from repro.messages.base import Message
from repro.messages.wire import (
    CANONICAL_JSON,
    FRAME_HEADER_SIZE,
    WireError,
    decode_frame_payload,
    journal_record,
    message_from_payload,
    parse_payload,
)

#: One snapshotted routing-table row: (filter, destination, subjects, seq).
SnapshotRow = Tuple[Filter, str, Tuple[str, ...], int]

#: One forwarded-set element: (filter, subject) registered at a neighbour.
ForwardedPair = Tuple[Filter, str]

#: One snapshotted logical-mobility state: the LocationDependentSubscribe
#: message equivalent to the state, plus the neighbours it was forwarded to
#: (in forwarding order; the state's destination is its routing row's).
LogicalEntry = Tuple[LocationDependentSubscribe, Tuple[str, ...]]


def _row_to_wire(row: SnapshotRow) -> Dict[str, Any]:
    filter_, destination, subjects, seq = row
    return {
        "filter": filter_to_wire(filter_),
        "destination": destination,
        "subjects": list(subjects),
        "seq": int(seq),
    }


def _row_from_wire(payload: Dict[str, Any]) -> SnapshotRow:
    return (
        filter_from_wire(payload["filter"]),
        payload["destination"],
        tuple(payload["subjects"]),
        int(payload["seq"]),
    )


def _pairs_to_wire(pairs: Sequence[ForwardedPair]) -> List[Dict[str, Any]]:
    return [
        {"filter": filter_to_wire(filter_), "subject": subject}
        for filter_, subject in pairs
    ]


def _pairs_from_wire(payload: Sequence[Dict[str, Any]]) -> Tuple[ForwardedPair, ...]:
    return tuple(
        (filter_from_wire(item["filter"]), item["subject"]) for item in payload
    )


class RoutingSnapshot:
    """A broker's complete routing state at one instant.

    Rows keep their table insertion order (restore order matters: the
    row dict's iteration order is part of the state delta consumers
    observe) and their original creation ``seq``; ``*_row_seq`` records
    each table's raw counter so numbers consumed by since-removed rows
    are not handed out again after a restore.  ``log_index`` is the
    sequence number of the last :class:`AdminLogRecord` the snapshot
    already covers — replay starts right after it.

    A snapshot never travels over a link: its one encoding is the
    canonical JSON of its body (:meth:`encode` / :meth:`decode`).
    """

    __slots__ = (
        "broker",
        "taken_at",
        "log_index",
        "subscription_rows",
        "subscription_row_seq",
        "advertisement_rows",
        "advertisement_row_seq",
        "forwarded_subscriptions",
        "forwarded_advertisements",
        "logical_states",
    )

    def __init__(
        self,
        broker: str,
        taken_at: float,
        log_index: int,
        subscription_rows: Iterable[SnapshotRow],
        subscription_row_seq: int,
        advertisement_rows: Iterable[SnapshotRow],
        advertisement_row_seq: int,
        forwarded_subscriptions: Dict[str, Sequence[ForwardedPair]],
        forwarded_advertisements: Dict[str, Sequence[ForwardedPair]],
        logical_states: Sequence[LogicalEntry] = (),
    ) -> None:
        self.broker = broker
        self.taken_at = float(taken_at)
        self.log_index = int(log_index)
        self.subscription_rows: Tuple[SnapshotRow, ...] = tuple(subscription_rows)
        self.subscription_row_seq = int(subscription_row_seq)
        self.advertisement_rows: Tuple[SnapshotRow, ...] = tuple(advertisement_rows)
        self.advertisement_row_seq = int(advertisement_row_seq)
        self.forwarded_subscriptions: Dict[str, Tuple[ForwardedPair, ...]] = {
            neighbour: tuple(pairs)
            for neighbour, pairs in forwarded_subscriptions.items()
        }
        self.forwarded_advertisements: Dict[str, Tuple[ForwardedPair, ...]] = {
            neighbour: tuple(pairs)
            for neighbour, pairs in forwarded_advertisements.items()
        }
        self.logical_states: Tuple[LogicalEntry, ...] = tuple(
            (subscribe, tuple(forwarded_to))
            for subscribe, forwarded_to in logical_states
        )

    def encode(self) -> bytes:
        """The snapshot's stored bytes: canonical JSON of its body."""
        body = {
            "broker": self.broker,
            "taken_at": self.taken_at,
            "log_index": self.log_index,
            "subscription": {
                "rows": [_row_to_wire(row) for row in self.subscription_rows],
                "row_seq": self.subscription_row_seq,
            },
            "advertisement": {
                "rows": [_row_to_wire(row) for row in self.advertisement_rows],
                "row_seq": self.advertisement_row_seq,
            },
            "forwarded_subscriptions": {
                neighbour: _pairs_to_wire(pairs)
                for neighbour, pairs in self.forwarded_subscriptions.items()
            },
            "forwarded_advertisements": {
                neighbour: _pairs_to_wire(pairs)
                for neighbour, pairs in self.forwarded_advertisements.items()
            },
            "logical": [
                {"subscribe": subscribe.to_wire(), "forwarded_to": list(forwarded_to)}
                for subscribe, forwarded_to in self.logical_states
            ],
        }
        return CANONICAL_JSON.encode(body).encode("utf-8")

    @classmethod
    def decode(cls, data: bytes) -> "RoutingSnapshot":
        """Rebuild a snapshot from :meth:`encode` output; malformed bytes
        (not JSON, a missing or mistyped field) raise :class:`WireError`."""
        payload = parse_payload(data)
        try:
            return cls(
                broker=payload["broker"],
                taken_at=float(payload["taken_at"]),
                log_index=int(payload["log_index"]),
                subscription_rows=[
                    _row_from_wire(row) for row in payload["subscription"]["rows"]
                ],
                subscription_row_seq=int(payload["subscription"]["row_seq"]),
                advertisement_rows=[
                    _row_from_wire(row) for row in payload["advertisement"]["rows"]
                ],
                advertisement_row_seq=int(payload["advertisement"]["row_seq"]),
                forwarded_subscriptions={
                    neighbour: _pairs_from_wire(pairs)
                    for neighbour, pairs in payload["forwarded_subscriptions"].items()
                },
                forwarded_advertisements={
                    neighbour: _pairs_from_wire(pairs)
                    for neighbour, pairs in payload["forwarded_advertisements"].items()
                },
                logical_states=[
                    (_logical_subscribe_from_wire(item["subscribe"]), tuple(item["forwarded_to"]))
                    for item in payload["logical"]
                ],
            )
        except (LookupError, TypeError, ValueError, AttributeError) as error:
            raise WireError("malformed routing snapshot: {!r}".format(error)) from error


def _logical_subscribe_from_wire(payload: Dict[str, Any]) -> LocationDependentSubscribe:
    """A logical state's subscription; a payload naming another message
    type is malformed even where its fields would fit."""
    if payload["type"] != "LocationDependentSubscribe":
        raise ValueError("logical state holds a {!r}".format(payload["type"]))
    return LocationDependentSubscribe.from_wire(payload)


#: A journal's filter definitions as a reader holds them, by number: the
#: sequence of the record that defined the filter, and the filter's
#: canonical JSON text.
Definitions = List[Tuple[int, str]]


class AdminLogRecord(NamedTuple):
    """One logged admin/mobility message, with its place in the log and its provenance.

    *sequence* numbers the log (1-based, contiguous per broker).
    *origin* is the origin the broker applied the entry with — a
    neighbour broker name for link traffic, a client id for operations
    of locally attached clients.  Replaying the entry through
    ``Broker._apply(entry, origin)`` reproduces the original state
    transition.

    A record never travels over a link: its one encoding is the journal
    frame payload :func:`~repro.messages.wire.journal_record` writes,
    canonical JSON ``[sequence, origin, entry]`` whose entry holds its
    filter as a number, or as ``[number, filter]`` where the record
    defines that number.
    """

    sequence: int
    origin: str
    entry: Message

    @classmethod
    def decode(cls, data: bytes, filters: Optional[Definitions] = None) -> "AdminLogRecord":
        """Rebuild a record from a journal frame payload.

        *filters* holds the definitions the journal made before this
        record (none by default); a record that defines the next number
        appends its definition once the whole record has decoded.  A
        malformed record (bytes, shape, field types or entry), a number
        not defined before it, a number or a filter (its canonical text)
        defined again and a definition out of turn raise
        :class:`WireError`.
        """
        record = parse_payload(data)
        if type(record) is not list or tuple(map(type, record)) != (int, str, dict):
            raise WireError("journal record is not [sequence, origin, entry]")
        sequence, origin, entry = record
        if filters is None:
            filters = []
        defined = None
        if "filter" in entry:
            field = entry["filter"]
            if type(field) is int and 0 <= field < len(filters):
                entry["filter"] = json.loads(filters[field][1])
            elif (
                type(field) is list
                and len(field) == 2
                and type(field[0]) is int
                and field[0] == len(filters)
            ):
                defined = CANONICAL_JSON.encode(field[1])
                if any(defined == text for _, text in filters):
                    raise WireError("journal record defines a filter again: {!r}".format(field))
                entry["filter"] = field[1]
            else:
                raise WireError("journal record names no filter it may: {!r}".format(field))
        message = message_from_payload(entry)
        if defined is not None:
            filters.append((sequence, defined))
        return cls(sequence, origin, message)


def _scan_frames(
    frames: bytes, filters: Definitions
) -> Tuple[List[Tuple[int, AdminLogRecord]], bool]:
    """Decode a run of journal frames: ``([(end offset, record), ...], torn)``.

    *filters* holds the definitions made before *frames*; the scan
    appends every definition it reads.  Stops at the first torn frame —
    short header, short payload or undecodable bytes, what a crash in
    the middle of an append leaves, or a record that names a filter
    number it may not.
    """
    records = []
    offset = 0
    while offset < len(frames):
        start = offset + FRAME_HEADER_SIZE
        try:
            end = start + decode_frame_payload(frames[offset:start])
            if end > len(frames):
                raise WireError("journal frame payload is short")
            record = AdminLogRecord.decode(frames[start:end], filters)
        except WireError:
            return records, True
        records.append((end, record))
        offset = end
    return records, False


class RecoveryStore:
    """Persistent-state stand-in: snapshot bytes plus an append-only log.

    Everything is stored encoded and decoded on demand, so recovery
    always exercises the full round trip: the snapshot as
    :meth:`RoutingSnapshot.encode` bytes, the log as one
    buffer of length-prefixed frames — the bytes
    :class:`DiskRecoveryStore` writes to its journal.  Sequences are
    contiguous, so the buffer plus the first retained sequence number is
    the whole log.  :meth:`install_snapshot` truncates the log prefix the
    snapshot covers — the paper's usual checkpoint-plus-tail layout.

    Beside the buffer the store keeps the journal's filter table: the
    canonical text of every filter a record defined, with its number and
    the sequence of the defining record.  Truncation leaves it whole, so
    a retained record that names a filter defined in the dropped prefix
    still decodes.

    This in-memory implementation is the default test double; it doubles
    as the storage *interface*.  Durable backends
    (:class:`DiskRecoveryStore`) override the ``_persist_record`` /
    ``_persist_snapshot`` / ``close`` hooks — everything the broker
    calls (`append`, `install_snapshot`, `snapshot`, `log_tail`) stays
    on the base class, so the two stores are behaviourally
    interchangeable.
    """

    def __init__(self, broker_name: str) -> None:
        self.broker_name = broker_name
        self._snapshot_bytes: Optional[bytes] = None
        #: Retained records as journal frames; the first is numbered
        #: ``_first_sequence``.
        self._frames = bytearray()
        self._first_sequence = 1
        self._next_sequence = 1
        #: Canonical text of every filter the journal defined -> its
        #: number (insertion order is number order; never reused).
        self._filter_numbers: Dict[str, int] = {}
        #: By number, the sequence of the record that defined the filter
        #: (ascending; machine integers, not an ``int`` object each).
        self._defined_at = array("q")
        self.snapshot_count = 0

    @property
    def log_index(self) -> int:
        """Sequence number of the most recently appended log record."""
        return self._next_sequence - 1

    def append(self, origin: str, entry: Message) -> int:
        """Append one admin message to the log and return its sequence number.

        A record over the frame cap raises :class:`WireError` before
        anything is written or defined: its frame would read as torn and
        take every later record with it.
        """
        sequence = self._next_sequence
        numbers = self._filter_numbers
        known = len(numbers)
        data = journal_record(sequence, origin, entry, numbers)
        if len(numbers) > known:
            self._defined_at.append(sequence)
        self._next_sequence = sequence + 1
        self._frames += len(data).to_bytes(FRAME_HEADER_SIZE, "big") + data
        self._persist_record(data)
        return sequence

    def install_snapshot(self, snapshot: RoutingSnapshot) -> None:
        """Store *snapshot* and drop the log prefix it covers.

        The covered records are a prefix of the buffer; walking their
        frame headers finds where it ends without decoding a record.
        """
        data = snapshot.encode()
        self._snapshot_bytes = data
        frames = self._frames
        cut = 0
        while self._first_sequence <= snapshot.log_index and cut < len(frames):
            cut += FRAME_HEADER_SIZE + int.from_bytes(frames[cut : cut + FRAME_HEADER_SIZE], "big")
            self._first_sequence += 1
        del frames[:cut]
        self.snapshot_count += 1
        self._persist_snapshot(data)

    def snapshot(self) -> Optional[RoutingSnapshot]:
        """Decode and return the stored snapshot, or ``None``."""
        if self._snapshot_bytes is None:
            return None
        return RoutingSnapshot.decode(self._snapshot_bytes)

    def log_tail(self) -> List[AdminLogRecord]:
        """Decode the retained log records, in append order.

        The buffer's records resolve their numbers against the filters
        defined before it, read back from the table.
        """
        defined_at = self._defined_at
        before = defined_at[: bisect_left(defined_at, self._first_sequence)]
        filters = list(zip(before, self._filter_numbers))
        return [record for _, record in _scan_frames(self._frames, filters)[0]]

    def log_size(self) -> int:
        """Number of retained (post-snapshot) log records."""
        return self._next_sequence - self._first_sequence

    def stored_bytes(self) -> int:
        """Total persisted size: snapshot plus retained record payloads, in bytes."""
        total = len(self._snapshot_bytes) if self._snapshot_bytes else 0
        return total + len(self._frames) - FRAME_HEADER_SIZE * self.log_size()

    # -- storage hooks (no-ops for the in-memory double) ----------------

    def _persist_record(self, data: bytes) -> None:
        """Called after a record is appended, with its frame payload."""

    def _persist_snapshot(self, data: bytes) -> None:
        """Called after a snapshot is installed, with its encoded bytes."""

    def close(self) -> None:
        """Release any backing resources (files); idempotent."""


class DiskRecoveryStore(RecoveryStore):
    """File-backed recovery store: atomic snapshot plus fsync'd journal.

    Layout, under ``<root>/<broker_name>/``:

    * ``snapshot.bin`` — the encoded :class:`RoutingSnapshot`,
      replaced atomically (write to ``snapshot.bin.tmp``, flush+fsync,
      :func:`os.replace`) so a crash mid-write leaves either the old or
      the new snapshot, never a torn one.  A torn/undecodable snapshot
      found at open time is ignored — recovery falls back to replaying
      the full journal from empty tables.
    * ``journal.log`` — append-only length-prefixed records, the same
      frame format the asyncio transport puts on TCP
      (:func:`~repro.messages.wire.encode_frame`).  Each append is
      ``write + flush + fsync`` — the fsync point *is* the commit point.
      The journal is never physically compacted; a snapshot truncates it
      *logically* via ``log_index``, which is what makes the
      torn-snapshot fallback safe (the full history is still on disk).

    Opening a directory with existing files recovers from them: the
    journal is scanned frame by frame, a torn final record (short
    header, short payload, undecodable bytes or a filter number it may
    not name) is discarded and the file truncated back to the last
    complete record, and the in-memory mirror (a slice of the file's
    bytes), the filter table (every definition in the file) and the
    sequence counter resume exactly where the last fsync landed.
    """

    SNAPSHOT_NAME = "snapshot.bin"
    JOURNAL_NAME = "journal.log"

    def __init__(self, broker_name: str, root: str) -> None:
        super().__init__(broker_name)
        self.directory = os.path.join(root, broker_name)
        os.makedirs(self.directory, exist_ok=True)
        self.counters: Dict[str, int] = {
            "disk_bytes_written": 0,
            "disk_records_recovered": 0,
            "disk_torn_records": 0,
            "disk_torn_snapshots": 0,
            "disk_snapshots_written": 0,
        }
        self._snapshot_path = os.path.join(self.directory, self.SNAPSHOT_NAME)
        self._journal_path = os.path.join(self.directory, self.JOURNAL_NAME)
        self._journal = None
        self._load()

    # -- recovery from existing files ------------------------------------

    def _load(self) -> None:
        covered = self._load_snapshot()
        self._load_journal(covered)

    def _load_snapshot(self) -> int:
        """Adopt an existing snapshot file; returns the log index it covers."""
        if not os.path.exists(self._snapshot_path):
            return 0
        with open(self._snapshot_path, "rb") as handle:
            data = handle.read()
        try:
            decoded = RoutingSnapshot.decode(data)
            if decoded.broker != self.broker_name:
                raise WireError("snapshot file belongs to another broker")
        except WireError:
            # Torn or foreign snapshot: ignore it entirely; the journal
            # still holds the full history (it is only truncated
            # logically), so replay-from-empty recovers the same state.
            self.counters["disk_torn_snapshots"] += 1
            return 0
        self._snapshot_bytes = data
        self.snapshot_count += 1
        return decoded.log_index

    def _load_journal(self, covered: int) -> None:
        """Scan the journal, keep records past *covered*, drop a torn tail."""
        raw = b""
        if os.path.exists(self._journal_path):
            with open(self._journal_path, "rb") as handle:
                raw = handle.read()
        filters: Definitions = []
        records, torn = _scan_frames(raw, filters)
        self.counters["disk_records_recovered"] += len(records)
        self.counters["disk_torn_records"] += int(torn)
        start = valid_end = retained = 0
        highest = covered
        for end, record in records:
            if record.sequence <= covered:
                start = end
            else:
                retained += 1
            valid_end = end
            highest = max(highest, record.sequence)
        self._frames = bytearray(raw[start:valid_end])
        self._filter_numbers = {text: number for number, (_, text) in enumerate(filters)}
        self._defined_at = array("q", [sequence for sequence, _ in filters])
        self._next_sequence = highest + 1
        self._first_sequence = self._next_sequence - retained
        self._journal = open(self._journal_path, "ab")
        self._journal.truncate(valid_end)

    # -- storage hooks ----------------------------------------------------

    def _persist_record(self, data: bytes) -> None:
        frame = len(data).to_bytes(FRAME_HEADER_SIZE, "big") + data
        self._journal.write(frame)
        self._journal.flush()
        os.fsync(self._journal.fileno())
        self.counters["disk_bytes_written"] += len(frame)

    def _persist_snapshot(self, data: bytes) -> None:
        tmp_path = self._snapshot_path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self._snapshot_path)
        self._fsync_directory()
        self.counters["disk_bytes_written"] += len(data)
        self.counters["disk_snapshots_written"] += 1

    def _fsync_directory(self) -> None:
        # Persist the rename itself; best-effort (not every platform
        # allows fsync on a directory fd).
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None


class ReplaySink:
    """A no-op stand-in for an outgoing channel during log replay.

    Replaying the log must evolve the broker's *local* state exactly as
    the first execution did — including the per-neighbour forwarded
    bookkeeping — without re-sending anything: the neighbours processed
    the originals before the crash.
    """

    __slots__ = ("source", "target", "suppressed_count")

    def __init__(self, source: str, target: str) -> None:
        self.source = source
        self.target = target
        self.suppressed_count = 0

    def send(self, message: Message) -> None:
        self.suppressed_count += 1


def table_rows(table: Any) -> List[SnapshotRow]:
    """The snapshot representation of *table*'s rows, in insertion order."""
    return [
        (entry.filter, entry.destination, tuple(sorted(entry.subjects)), entry.seq)
        for entry in table.entries()
    ]


def encode_table(table: Any) -> bytes:
    """Canonical byte encoding of a routing table (rows + raw counter).

    The crash-oracle test compares tables across runs with ``==`` on
    these bytes: two tables encode identically iff they hold the same
    rows, in the same insertion order, with the same subjects, creation
    sequence numbers and raw ``row_seq`` counter.
    """
    payload = {
        "rows": [_row_to_wire(row) for row in table_rows(table)],
        "row_seq": table.row_seq,
    }
    return CANONICAL_JSON.encode(payload).encode("utf-8")
