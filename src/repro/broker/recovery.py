"""Broker crash recovery: routing-state snapshots plus an admin log.

A broker's volatile routing state is a deterministic function of the
administrative traffic it has processed, so crash recovery needs exactly
two persistent artifacts (both stored wire-encoded, the same canonical
JSON the asyncio backend puts on real links):

* a :class:`RoutingSnapshot` — the subscription and advertisement tables
  row by row (filter, destination, subjects, pinned creation ``seq``)
  plus the per-neighbour forwarded (filter, subject) sets, taken at a
  quiescent instant, and
* an append-only log of :class:`AdminLogRecord` entries — every admin or
  mobility message that changed the broker's routing state *after* the
  snapshot, tagged with the destination it arrived from (a neighbour
  link or a locally attached client).

Restart decodes the snapshot (:meth:`Reliability.recover` recreates each
row with its original ``seq`` via :meth:`~repro.routing.table.RoutingTable.
restore_row`, so every delta consumer observes the rows exactly as the
live mutations produced them), then replays the log tail through the
broker's normal dispatch with its outgoing links swapped for
:class:`ReplaySink` stubs — the replay must mutate local state
identically to the first execution without re-emitting a single message.
The derived structures (``DispatchPlan``, ``NeighbourForwardingState``)
are *not* snapshotted: they are rebuilt lazily from the recovered tables
the first time they are consulted.

The store keeps bytes, not objects — the log is one buffer of journal
frames, and :meth:`RecoveryStore.snapshot` and
:meth:`RecoveryStore.log_tail` decode on demand — which is what makes
the crash-oracle test meaningful: everything a restart sees has survived
a full encode/decode round trip.

:class:`Reliability` is one broker's user of all this, and of the two
volatile safeguards beside it: the retention window and heartbeats.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.location_filter import LocationDependentSubscribe
from repro.filters.filter import Filter
from repro.filters.wire import filter_from_wire, filter_to_wire
from repro.messages.base import CANONICAL_JSON, Message, MessageKind
from repro.messages.control import ForwardAck, Heartbeat, SequencedForward
from repro.messages.notification import Notification
from repro.messages.wire import (
    FRAME_HEADER_SIZE,
    WireError,
    decode_frame_payload,
    decode_message,
    encode_message,
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


class RoutingSnapshot(Message):
    """A broker's complete routing state at one instant, wire-codable.

    Rows keep their table insertion order (restore order matters: the
    row dict's iteration order is part of the state delta consumers
    observe) and their original creation ``seq``; ``*_row_seq`` records
    each table's raw counter so numbers consumed by since-removed rows
    are not handed out again after a restore.  ``log_index`` is the
    sequence number of the last :class:`AdminLogRecord` the snapshot
    already covers — replay starts right after it.
    """

    kind = MessageKind.ADMIN

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
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
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

    def describe(self) -> str:
        return "RoutingSnapshot#{}({}, {} sub rows, {} adv rows)".format(
            self.message_id,
            self.broker,
            len(self.subscription_rows),
            len(self.advertisement_rows),
        )

    def _wire_body(self) -> Dict[str, Any]:
        return {
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

    @classmethod
    def _from_wire_body(cls, payload: Dict[str, Any]) -> "RoutingSnapshot":
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
                (
                    message_from_payload(item["subscribe"]),
                    tuple(item["forwarded_to"]),
                )
                for item in payload.get("logical", [])
            ],
        )


class AdminLogRecord(Message):
    """One logged admin/mobility message, wrapped with its provenance.

    *origin* is the origin the broker applied the entry with — a
    neighbour broker name for link traffic, a client id for operations
    of locally attached clients.  Replaying the entry through
    ``Broker._apply(entry, origin)`` reproduces the original state
    transition.  *sequence* numbers the log (1-based,
    contiguous per broker); *logged_at* is the clock reading when the
    entry was appended.

    A record never travels over a link: its one encoding is the journal
    frame payload, canonical JSON ``[sequence, logged_at, origin, entry]``
    (:meth:`encode` / :meth:`decode`).
    """

    kind = MessageKind.ADMIN

    __slots__ = ("origin", "sequence", "logged_at", "entry")

    def __init__(self, origin: str, sequence: int, logged_at: float, entry: Message) -> None:
        super().__init__()
        self.origin = origin
        self.sequence = int(sequence)
        self.logged_at = float(logged_at)
        self.entry = entry

    def describe(self) -> str:
        return "AdminLogRecord#{}(seq={} entry={})".format(
            self.message_id, self.sequence, self.entry.describe()
        )

    def encode(self) -> bytes:
        payload = [self.sequence, self.logged_at, self.origin, self.entry.to_wire()]
        return CANONICAL_JSON.encode(payload).encode("utf-8")

    @classmethod
    def decode(cls, data: bytes) -> "AdminLogRecord":
        """Rebuild a record from :meth:`encode` output; a malformed one
        (bytes, shape, field types or entry) raises :class:`WireError`."""
        record = parse_payload(data)
        types = tuple(map(type, record)) if type(record) is list else ()
        if len(types) != 4 or types[:3] != (int, float, str):
            raise WireError("journal record is not [sequence, logged_at, origin, entry]")
        sequence, logged_at, origin, entry = record
        return cls(origin, sequence, logged_at, message_from_payload(entry))


def _scan_frames(frames: bytes) -> Tuple[List[Tuple[int, AdminLogRecord]], bool]:
    """Decode a run of journal frames: ``([(end offset, record), ...], torn)``.

    Stops at the first torn frame — short header, short payload or
    undecodable bytes, what a crash in the middle of an append leaves.
    """
    records = []
    offset = 0
    while offset < len(frames):
        start = offset + FRAME_HEADER_SIZE
        try:
            end = start + decode_frame_payload(frames[offset:start])
            if end > len(frames):
                raise WireError("journal frame payload is short")
            record = AdminLogRecord.decode(frames[start:end])
        except WireError:
            return records, True
        records.append((end, record))
        offset = end
    return records, False


class RecoveryStore:
    """Persistent-state stand-in: snapshot bytes plus an append-only log.

    Everything is stored encoded and decoded on demand, so recovery
    always exercises the full wire round trip: the snapshot as
    :func:`~repro.messages.wire.encode_message` bytes, the log as one
    buffer of length-prefixed frames — the bytes
    :class:`DiskRecoveryStore` writes to its journal.  Sequences are
    contiguous, so the buffer plus the first retained sequence number is
    the whole log.  :meth:`install_snapshot` truncates the log prefix the
    snapshot covers — the paper's usual checkpoint-plus-tail layout.

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
        self.snapshot_count = 0

    @property
    def log_index(self) -> int:
        """Sequence number of the most recently appended log record."""
        return self._next_sequence - 1

    def append(self, origin: str, entry: Message, logged_at: float) -> AdminLogRecord:
        """Append one admin message to the log and return its record."""
        record = AdminLogRecord(origin, self._next_sequence, logged_at, entry)
        self._next_sequence += 1
        data = record.encode()
        self._frames += len(data).to_bytes(FRAME_HEADER_SIZE, "big")
        self._frames += data
        self._persist_record(data)
        return record

    def install_snapshot(self, snapshot: RoutingSnapshot) -> None:
        """Store *snapshot* and drop the log prefix it covers.

        The covered records are a prefix of the buffer; walking their
        frame headers finds where it ends without decoding a record.
        """
        data = encode_message(snapshot)
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
        decoded = decode_message(self._snapshot_bytes)
        if not isinstance(decoded, RoutingSnapshot):
            raise TypeError("recovery store holds a non-snapshot message")
        return decoded

    def log_tail(self) -> List[AdminLogRecord]:
        """Decode the retained log records, in append order."""
        return [record for _, record in _scan_frames(self._frames)[0]]

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

    * ``snapshot.bin`` — the wire-encoded :class:`RoutingSnapshot`,
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
    header, short payload, or undecodable bytes) is discarded and the
    file truncated back to the last complete record, and the in-memory
    mirror (a slice of the file's bytes) and sequence counter resume
    exactly where the last fsync landed.
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
            decoded = decode_message(data)
            if not isinstance(decoded, RoutingSnapshot):
                raise WireError("snapshot file holds a non-snapshot message")
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
        records, torn = _scan_frames(raw)
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


class Reliability:
    """One broker's crash recovery, in-flight retention window and heartbeats.

    Everything held here is volatile: the broker builds a new one with the
    rest of its routing state.  The store this journals into is the
    broker's ``recovery``, which stands for stable storage and survives.
    """

    def __init__(self, broker: Any) -> None:
        self.broker = broker
        #: Set while a restart replays the log tail: nothing is journaled
        #: again, and no ack goes out.
        self.replaying = False
        #: Liveness: neighbour -> clock reading of the last heartbeat heard
        #: from it.  A restarted broker must re-earn its lease.
        self.heartbeat_last_heard: Dict[str, float] = {}
        # In-flight retention (config.forward_retention): per-neighbour
        # window of (link_seq, notification) forwards not yet acked, the
        # next outgoing link sequence, and the highest link sequence
        # processed from each neighbour.  The *upstream* copy is what
        # protects a crashing broker's in-flight traffic.
        self._retained_forwards: Dict[str, Deque[Tuple[int, Notification]]] = {}
        self._forward_link_seq: Dict[str, int] = {}
        self._forward_recv_seq: Dict[str, int] = {}

    def journal(self, origin: str, message: Message) -> None:
        """Append a routing-state change to the recovery log (not while replaying it)."""
        store = self.broker.recovery
        if store is not None and not self.replaying:
            store.append(origin, message, self.broker.clock.now)

    def enable_recovery(self, store: Optional[RecoveryStore] = None) -> RecoveryStore:
        """Attach a recovery store; admin traffic is journaled from now on.

        *store* selects the backend — any :class:`RecoveryStore`
        implementation, e.g. a :class:`DiskRecoveryStore`; ``None``
        attaches the in-memory default.  Enable recovery *before* routing
        state is built up (or take a snapshot right after enabling) — the
        log only captures traffic processed while the store is attached.
        """
        broker = self.broker
        if broker.recovery is None:
            broker.recovery = store if store is not None else RecoveryStore(broker.name)
        elif store is not None and store is not broker.recovery:
            raise ValueError(
                "broker {} already has a recovery store attached".format(broker.name)
            )
        return broker.recovery

    def take_snapshot(self) -> RoutingSnapshot:
        """Checkpoint the routing state into the recovery store.

        The snapshot covers the log written so far, so the store drops
        that prefix; a subsequent restart decodes the snapshot and
        replays only the tail.
        """
        broker = self.broker
        if broker.recovery is None:
            raise ValueError("broker {} has no recovery store".format(broker.name))
        snapshot = RoutingSnapshot(
            broker=broker.name,
            taken_at=broker.clock.now,
            log_index=broker.recovery.log_index,
            subscription_rows=table_rows(broker.subscription_table),
            subscription_row_seq=broker.subscription_table.row_seq,
            advertisement_rows=table_rows(broker.advertisement_table),
            advertisement_row_seq=broker.advertisement_table.row_seq,
            forwarded_subscriptions={
                neighbour: [(filter_, subject) for (_, subject), filter_ in mapping.items()]
                for neighbour, mapping in broker._forwarded_subscriptions.items()
            },
            forwarded_advertisements={
                neighbour: [(filter_, subject) for (_, subject), filter_ in mapping.items()]
                for neighbour, mapping in broker._forwarded_advertisements.items()
            },
            logical_states=broker.logical.snapshot_entries(),
        )
        broker.recovery.install_snapshot(snapshot)
        return snapshot

    def recover(self) -> int:
        """Rebuild the routing state of a freshly crashed broker from its store.

        Applies the stored snapshot, then replays the log tail through
        ``Broker._apply`` with every outgoing link swapped for a
        :class:`ReplaySink` — the replay must evolve local state exactly
        as the first execution did without re-sending anything.  Returns
        the number of log records replayed.
        """
        broker = self.broker
        if broker.recovery is None:
            return 0
        snapshot = broker.recovery.snapshot()
        if snapshot is not None:
            self._restore(snapshot)
        tail = broker.recovery.log_tail()
        real_links = broker._links
        broker._links = {neighbour: ReplaySink(broker.name, neighbour) for neighbour in real_links}
        self.replaying = True
        try:
            for record in tail:
                broker._apply(record.entry, record.origin, received=True)
        finally:
            broker._links = real_links
            self.replaying = False
        broker.counters["recovery_log_replayed"] += len(tail)
        return len(tail)

    def _restore(self, snapshot: RoutingSnapshot) -> None:
        """Restore the broker's tables and forwarded sets from *snapshot*.

        The broker's tables must be empty (freshly crashed); rows are
        recreated in snapshot order with their pinned creation sequence
        numbers, so every delta consumer rebuilds exactly the state it
        held before the crash.
        """
        broker = self.broker
        if snapshot.broker != broker.name:
            raise ValueError(
                "snapshot of {} cannot restore broker {}".format(snapshot.broker, broker.name)
            )
        # Every decoded filter gives way to the network's live one.
        intern = broker.filter_caches.intern
        # Logical states come back first and claim their routing rows as
        # these are restored.
        broker.logical.restore(snapshot.logical_states)
        for filter_, destination, subjects, seq in snapshot.subscription_rows:
            filter_ = broker.logical.claim_row(intern(filter_), destination, subjects)
            broker.subscription_table.restore_row(filter_, destination, subjects, seq)
        broker.subscription_table.advance_row_seq(snapshot.subscription_row_seq)
        for filter_, destination, subjects, seq in snapshot.advertisement_rows:
            broker.advertisement_table.restore_row(intern(filter_), destination, subjects, seq)
        broker.advertisement_table.advance_row_seq(snapshot.advertisement_row_seq)
        for neighbour, pairs in snapshot.forwarded_subscriptions.items():
            mapping = broker._forwarded_subscriptions.setdefault(neighbour, {})
            mapping.clear()
            for filter_, subject in pairs:
                mapping[(filter_.key(), subject)] = intern(filter_)
        for neighbour, pairs in snapshot.forwarded_advertisements.items():
            mapping = broker._forwarded_advertisements.setdefault(neighbour, {})
            mapping.clear()
            for filter_, subject in pairs:
                mapping[(filter_.key(), subject)] = intern(filter_)

    # ------------------------------------------------------------------
    # In-flight retention (config.forward_retention)
    # ------------------------------------------------------------------
    def send_retained_forward(
        self, neighbour: str, notification: Notification, window: int
    ) -> None:
        """Forward *notification* wrapped with a link sequence, retaining it.

        The copy stays in the per-neighbour window until the neighbour's
        cumulative ack covers it; a bounded window evicts oldest-first
        (``retention_evicted`` counts the evictions — an eviction is a
        reopened loss window, so sizing shows up in the counters).
        """
        broker = self.broker
        sequence = self._forward_link_seq.get(neighbour, 0) + 1
        self._forward_link_seq[neighbour] = sequence
        buffer = self._retained_forwards.setdefault(neighbour, deque())
        buffer.append((sequence, notification))
        broker.counters["forwards_retained"] += 1
        while len(buffer) > window:
            buffer.popleft()
            broker.counters["retention_evicted"] += 1
        broker._links[neighbour].send(
            SequencedForward(notification, sender=broker.name, link_seq=sequence)
        )

    def handle_forward(
        self, message: SequencedForward, from_destination: Optional[str]
    ) -> None:
        """Unwrap a retained forward, process it, and ack it cumulatively."""
        broker = self.broker
        if from_destination is not None:
            previous = self._forward_recv_seq.get(from_destination, 0)
            self._forward_recv_seq[from_destination] = max(previous, message.link_seq)
        broker._handle_notification(message.notification, from_destination)
        if from_destination in broker._links and not self.replaying:
            broker._links[from_destination].send(
                ForwardAck(
                    sender=broker.name,
                    upto=self._forward_recv_seq.get(from_destination, message.link_seq),
                )
            )

    def handle_forward_ack(self, message: ForwardAck, from_destination: Optional[str]) -> None:
        buffer = self._retained_forwards.get(from_destination)
        if not buffer:
            return
        while buffer and buffer[0][0] <= message.upto:
            buffer.popleft()
            self.broker.counters["forwards_acked"] += 1

    def retained_forwards(self, neighbour: str) -> List[Tuple[int, Notification]]:
        """The currently retained (unacked) window toward *neighbour*."""
        return list(self._retained_forwards.get(neighbour, ()))

    # ------------------------------------------------------------------
    # Heartbeats (liveness beacons consumed by the failure detector)
    # ------------------------------------------------------------------
    def emit_heartbeats(self) -> None:
        """Send one :class:`Heartbeat` to every neighbour (no-op while down)."""
        broker = self.broker
        if broker.is_crashed:
            return
        now = broker.clock.now
        for neighbour in broker.neighbours():
            broker.counters["heartbeats_sent"] += 1
            broker._links[neighbour].send(Heartbeat(sender=broker.name, sent_at=now))

    def handle_heartbeat(self, message: Heartbeat, from_destination: Optional[str]) -> None:
        if from_destination is not None:
            self.heartbeat_last_heard[from_destination] = self.broker.clock.now

    #: This component's rows of ``Broker._MESSAGE_TABLE`` (see there).
    MESSAGES = {
        SequencedForward: ("notifications_received", False, False, "reliability", handle_forward),
        ForwardAck: ("control_received", False, False, "reliability", handle_forward_ack),
        Heartbeat: ("control_received", False, False, "reliability", handle_heartbeat),
    }
