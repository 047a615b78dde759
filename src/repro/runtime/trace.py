"""Trace recording (backend-neutral).

Every message traversal of a channel and every delivery to a client
callback is recorded here.  The metrics layer (message counts for
Figure 9, the blackout analysis for Figure 3) and the QoS checkers
(completeness, duplicates, FIFO, epochs) are pure functions over these
records, which keeps the middleware itself free of measurement concerns.

The recorder depends only on :mod:`repro.messages`, so both the
simulator backend (:mod:`repro.runtime.sim`) and the asyncio backend
(:mod:`repro.runtime.aio`) feed the same record types — which is what
lets the backend-parity tests compare traces across backends directly.

A **link row** is a time, an id into the recorder's interned
``(source, target)`` pairs and a small id into its interned message
*classes*: it keeps no message.  Every reader of link traffic — the
Figure 9 counts, per kind, per link, per type and per time window —
needs no more, because ``kind`` is a class attribute of every message
type; so a message lives only as long as the brokers and clients that
hold it, not for the rest of the run.

Drop, publish and delivery records are **references, not copies**: each
holds the time, the endpoints and the message (or notification) itself,
and renders ``description`` / ``attributes`` only when something reads
them.  That is sound because no message changes after it has been sent —
the contract ``docs/observability.md`` ("Trace records") spells out and
``tests/runtime/test_trace_records.py`` checks on every experiment.

Link traversals and deliveries, the two high-volume kinds, are kept as
**columns** (:class:`LinkColumns`, :class:`DeliveryColumns`), and
``link_records`` / ``delivery_records`` are :class:`RecordView` s that
build a record per row only when one is read.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Any, Dict, List, Optional, Tuple

from repro.messages.base import Message, MessageKind
from repro.messages.notification import Notification

#: What ``DeliveryColumns.sequences`` holds for a delivery without a sequence.
_NO_SEQUENCE = -(2**63)


def _intern(ids: Dict[Any, int], values: List[Any], value: Any) -> int:
    """The id of *value* in *values*, appended (and numbered in *ids*) when new."""
    value_id = ids.get(value)
    if value_id is None:
        value_id = ids[value] = len(values)
        values.append(value)
    return value_id


class _Record:
    """Value equality over the stored fields, the message by identity."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class LinkRecord(_Record):
    """One message crossing one link (counted once per traversal), by its class."""

    __slots__ = ("time", "source", "target", "message_class")

    def __init__(self, time: float, source: str, target: str, message_class: type) -> None:
        self.time = time
        self.source = source
        self.target = target
        self.message_class = message_class

    def _key(self) -> Tuple[Any, ...]:
        return (self.time, self.source, self.target, self.message_class)

    @property
    def kind(self) -> MessageKind:
        return self.message_class.kind

    @property
    def message_type(self) -> str:
        return self.message_class.__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}({}, {}->{}, {})".format(
            type(self).__name__, self.time, self.source, self.target, self.message_type
        )


class DropRecord(LinkRecord):
    """One message lost by fault injection, attributed to its cause.

    *reason* names the fault that consumed the message: ``"loss"`` for
    the iid drop model, ``"partition"`` for a scheduled link-down window,
    ``"broker-down"`` for a message that reached a crashed broker.  The
    recovery metrics (:mod:`repro.metrics.recovery`) split losses by
    reason, which is how the failure experiments attribute missing
    deliveries to the fault schedule instead of guessing.  Drops are few,
    so a drop record keeps the message, and everything about it is read
    through.
    """

    __slots__ = ("message", "reason")

    def __init__(
        self, time: float, source: str, target: str, message: Message, reason: str
    ) -> None:
        super().__init__(time, source, target, type(message))
        self.message = message
        self.reason = reason

    def _key(self) -> Tuple[Any, ...]:
        return super()._key() + (id(self.message), self.reason)

    @property
    def message_id(self) -> int:
        return self.message.message_id

    @property
    def description(self) -> str:
        """``message.describe()``, rendered when read."""
        return self.message.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}({}, {}->{}, {}, {})".format(
            type(self).__name__, self.time, self.source, self.target, self.description, self.reason
        )


class _NotificationRecord(_Record):
    """A notification seen at a client boundary; its content is read through."""

    __slots__ = ("time", "notification")

    def __init__(self, time: float, notification: Notification) -> None:
        self.time = time
        self.notification = notification

    def _key(self) -> Tuple[Any, ...]:
        return (self.time, id(self.notification))

    @property
    def publisher(self) -> str:
        return self.notification.publisher

    @property
    def publisher_seq(self) -> int:
        return self.notification.publisher_seq

    @property
    def attributes(self) -> Tuple[Tuple[str, Any], ...]:
        """The notification's attributes as a name-sorted tuple of pairs."""
        return tuple(self.notification.attributes.items())

    @property
    def identity(self) -> Tuple[str, int]:
        """Global identity of the notification."""
        return self.notification.identity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}({}, {})".format(type(self).__name__, self.time, self.notification.describe())


class PublishRecord(_NotificationRecord):
    """One notification injected into the system by a producer."""

    __slots__ = ()


class DeliveryRecord(_NotificationRecord):
    """One notification handed to a client's ``notify`` callback.

    Built on read from a row of :class:`DeliveryColumns`, by
    ``TraceRecorder.delivery_records`` and the receiving
    ``Client.received`` alike; the two build equal records.
    """

    __slots__ = ("client_id", "subscription_id", "sequence")

    def __init__(
        self,
        time: float,
        client_id: str,
        subscription_id: str,
        notification: Notification,
        sequence: Optional[int] = None,
    ) -> None:
        # Flat on purpose (no ``super().__init__``): built on every read of a row.
        self.time = time
        self.client_id = client_id
        self.subscription_id = subscription_id
        self.notification = notification
        self.sequence = sequence

    def _key(self) -> Tuple[Any, ...]:
        return super()._key() + (self.client_id, self.subscription_id, self.sequence)


class _Columns:
    """Observations of one kind as parallel columns, one row each.

    A row is a time and an id into *pairs* — the recorder's interned
    table of ``(source, target)`` and ``(client_id, subscription_id)``
    pairs — plus the kind's own columns.
    """

    __slots__ = ("pairs", "times", "pair_ids")

    def __init__(self, pairs: List[Tuple[str, str]]) -> None:
        self.pairs = pairs
        self.times = array("d")
        self.pair_ids = array("I")

    def __len__(self) -> int:
        return len(self.times)


class LinkColumns(_Columns):
    """Link traversals: time, ``(source, target)`` id, id into *classes*.

    *classes* is the recorder's interned table of message classes, in
    order of first traversal (fewer than 256, one byte a row).
    """

    __slots__ = ("classes", "class_ids")

    def __init__(self, pairs: List[Tuple[str, str]], classes: List[type]) -> None:
        super().__init__(pairs)
        self.classes = classes
        self.class_ids = array("B")

    def record(self, row: int) -> LinkRecord:
        pair = self.pairs[self.pair_ids[row]]
        return LinkRecord(self.times[row], *pair, self.classes[self.class_ids[row]])


class DeliveryColumns(_Columns):
    """Deliveries: time, ``(client_id, subscription_id)`` id, notification, sequence."""

    __slots__ = ("notifications", "sequences")

    def __init__(self, pairs: List[Tuple[str, str]]) -> None:
        super().__init__(pairs)
        self.notifications: List[Notification] = []
        self.sequences = array("q")

    def record(self, row: int) -> DeliveryRecord:
        sequence = self.sequences[row]
        return DeliveryRecord(
            self.times[row],
            *self.pairs[self.pair_ids[row]],
            self.notifications[row],
            None if sequence == _NO_SEQUENCE else sequence,
        )


class RecordView(Sequence):
    """A read-only sequence of records, each built from *columns* when read.

    Over every row of *columns* (rows recorded later show up), or over
    the row numbers in *rows*.  A slice is a list of records; a view
    equals a list (or view) of equal records, so ``view == []`` holds
    exactly when it is empty.
    """

    __slots__ = ("_columns", "_rows")

    def __init__(self, columns: Any, rows: Optional[array] = None) -> None:
        self._columns = columns
        self._rows = rows

    def _row_numbers(self) -> Sequence:
        return range(len(self._columns)) if self._rows is None else self._rows

    def __len__(self) -> int:
        return len(self._row_numbers())

    def __getitem__(self, index: Any) -> Any:
        rows = self._row_numbers()
        if isinstance(index, slice):
            return [self._columns.record(row) for row in rows[index]]
        row = rows[index]
        return self._columns.record(row)

    def __iter__(self) -> Any:
        for row in self._row_numbers():
            yield self._columns.record(row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RecordView, list)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)


class ReceivedRecords(RecordView):
    """``Client.received``: the client's rows of a recorder's delivery columns.

    The rows come from the border broker's recorder.  A delivery no
    recorder saw, or one recorded in other columns than the earlier rows
    (another recorder, or the same one after ``clear()``), goes into a
    private recorder, which from then on holds every row of the view.
    """

    __slots__ = ("_own",)

    def __init__(self) -> None:
        super().__init__(None, array("I"))
        self._own: Optional[TraceRecorder] = None

    def add(self, trace: TraceRecorder, row: int) -> bool:
        """Keep *row* of *trace*; ``False`` when the earlier rows live elsewhere."""
        columns = trace.delivery_columns
        if columns is not self._columns:
            if self._rows:
                return False
            self._columns = columns
        self._rows.append(row)
        return True

    def add_unrecorded(self, record: DeliveryRecord) -> None:
        """Keep a delivery that the recorder of the earlier rows does not hold."""
        records = [record]
        if self._own is None:
            self._own, records = TraceRecorder(), list(self) + records
            self._columns, self._rows = self._own.delivery_columns, array("I")
        for r in records:
            fields = (r.time, r.client_id, r.subscription_id, r.notification, r.sequence)
            self._rows.append(self._own.record_delivery(*fields))


class TraceRecorder:
    """Collects link, publish, drop and delivery observations for one run."""

    def __init__(self) -> None:
        self.publish_records: List[PublishRecord] = []
        self.drop_records: List[DropRecord] = []
        self._new_columns()

    def _new_columns(self) -> None:
        # Replaced, not emptied: a view taken earlier (a ``Client.received``)
        # keeps reading the old columns for as long as it lives.
        self._pair_ids: Dict[Tuple[str, str], int] = {}
        self._pairs: List[Tuple[str, str]] = []
        self._class_ids: Dict[type, int] = {}
        self._classes: List[type] = []
        self.link_columns = LinkColumns(self._pairs, self._classes)
        self.delivery_columns = DeliveryColumns(self._pairs)
        # Every link traversal / delivery, as records built on read.
        self.link_records = RecordView(self.link_columns)
        self.delivery_records = RecordView(self.delivery_columns)

    def _pair_id(self, pair: Tuple[str, str]) -> int:
        return _intern(self._pair_ids, self._pairs, pair)

    # -- recording hooks ----------------------------------------------------
    def record_link(self, time: float, source: str, target: str, message: Message) -> None:
        """Record that a message of *message*'s class crossed from *source* to *target*."""
        links = self.link_columns
        links.times.append(time)
        links.pair_ids.append(self._pair_id((source, target)))
        links.class_ids.append(_intern(self._class_ids, self._classes, type(message)))

    def record_drop(
        self, time: float, source: str, target: str, message: Message, reason: str
    ) -> None:
        """Record that *message* was lost between *source* and *target*."""
        self.drop_records.append(DropRecord(time, source, target, message, reason))

    def record_publish(self, time: float, notification: Notification) -> None:
        """Record a notification being published by its producer."""
        self.publish_records.append(PublishRecord(time, notification))

    def record_delivery(
        self,
        time: float,
        client_id: str,
        subscription_id: str,
        notification: Notification,
        sequence: Optional[int] = None,
    ) -> int:
        """Record a notification being delivered to a client; returns its row."""
        deliveries = self.delivery_columns
        row = len(deliveries.times)
        deliveries.times.append(time)
        deliveries.pair_ids.append(self._pair_id((client_id, subscription_id)))
        deliveries.notifications.append(notification)
        deliveries.sequences.append(_NO_SEQUENCE if sequence is None else sequence)
        return row

    # -- queries --------------------------------------------------------------
    def deliveries_for(self, client_id: str) -> List[DeliveryRecord]:
        """All deliveries to *client_id*, in delivery order."""
        deliveries = self.delivery_columns
        wanted = {i for i, pair in enumerate(deliveries.pairs) if pair[0] == client_id}
        rows = [row for row, pair_id in enumerate(deliveries.pair_ids) if pair_id in wanted]
        return [deliveries.record(row) for row in rows]

    def link_rows(
        self,
        kind: Optional[MessageKind] = None,
        until: Optional[float] = None,
        since: Optional[float] = None,
    ) -> Sequence:
        """Rows of ``link_columns`` matching kind and time window; builds no record."""
        links = self.link_columns
        rows: Sequence = range(len(links))
        if until is not None or since is not None:
            low = float("-inf") if since is None else since
            high = float("inf") if until is None else until
            rows = [row for row, time in enumerate(links.times) if low <= time <= high]
        if kind is not None:
            wanted = {i for i, cls in enumerate(links.classes) if cls.kind == kind}
            class_ids = links.class_ids
            rows = [row for row in rows if class_ids[row] in wanted]
        return rows

    def link_messages(
        self,
        kind: Optional[MessageKind] = None,
        until: Optional[float] = None,
        since: Optional[float] = None,
    ) -> List[LinkRecord]:
        """Link traversals filtered by message kind and time window."""
        record = self.link_columns.record
        return [record(row) for row in self.link_rows(kind, until, since)]

    def count_link_messages(
        self,
        kind: Optional[MessageKind] = None,
        until: Optional[float] = None,
        since: Optional[float] = None,
    ) -> int:
        """Number of link traversals matching the given filters."""
        return len(self.link_rows(kind, until, since))

    def drops(
        self,
        kind: Optional[MessageKind] = None,
        reason: Optional[str] = None,
        until: Optional[float] = None,
        since: Optional[float] = None,
    ) -> List[DropRecord]:
        """Dropped messages filtered by kind, fault reason and time window."""
        out = self.drop_records
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if reason is not None:
            out = [r for r in out if r.reason == reason]
        if until is not None:
            out = [r for r in out if r.time <= until]
        if since is not None:
            out = [r for r in out if r.time >= since]
        return list(out)

    def publishes(self, until: Optional[float] = None) -> List[PublishRecord]:
        """All publish records, optionally truncated at *until*."""
        if until is None:
            return list(self.publish_records)
        return [r for r in self.publish_records if r.time <= until]

    def clear(self) -> None:
        """Forget all recorded data (and with it the messages only it kept alive)."""
        self.publish_records.clear()
        self.drop_records.clear()
        self._new_columns()
