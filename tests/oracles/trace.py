"""List-of-objects specification of the trace recorder, and a recorder that keeps messages.

:class:`~repro.runtime.trace.TraceRecorder` keeps link traversals and
deliveries as columns and builds records when read; what it must answer
is written down here the obvious way — one record object per
observation, appended to a list, queries filtering those lists — together
with the link-message aggregations of :mod:`repro.metrics.counters`
computed from the records alone.

A production link row names the message's class, not the message.  Tests
that read more of a link message — its id, description, frame or object
identity — record into a :class:`MessageKeepingRecorder`, through
``make_runtime(..., trace=)`` or :func:`message_keeping_runtime`.
"""

from collections import Counter

from repro.messages.base import MessageKind
from repro.runtime.factory import make_runtime
from repro.runtime.trace import (
    DeliveryRecord,
    DropRecord,
    LinkRecord,
    PublishRecord,
    TraceRecorder,
)


class MessageKeepingRecorder(TraceRecorder):
    """The production recorder, plus the message of every link row.

    ``sent[row]`` is the message that ``link_columns`` row *row* counted.
    """

    def __init__(self):
        super().__init__()
        self.sent = []

    def record_link(self, time, source, target, message):
        super().record_link(time, source, target, message)
        self.sent.append(message)

    def sent_records(self):
        """``(link record, message)`` for every link row, in record order."""
        assert len(self.sent) == len(self.link_records)
        return list(zip(self.link_records, self.sent))

    def clear(self):
        super().clear()
        self.sent = []


def message_keeping_runtime(name="sim", latency=None):
    """A runtime of backend *name* recording into a :class:`MessageKeepingRecorder`."""
    return make_runtime(name, latency, trace=MessageKeepingRecorder())


class ReferenceRecorder:
    """Every observation as one record object in one list per kind."""

    def __init__(self):
        self.link_records = []
        self.delivery_records = []
        self.publish_records = []
        self.drop_records = []

    def record_link(self, time, source, target, message):
        self.link_records.append(LinkRecord(time, source, target, type(message)))

    def record_drop(self, time, source, target, message, reason):
        self.drop_records.append(DropRecord(time, source, target, message, reason))

    def record_publish(self, time, notification):
        self.publish_records.append(PublishRecord(time, notification))

    def record_delivery(self, time, client_id, subscription_id, notification, sequence=None):
        record = DeliveryRecord(time, client_id, subscription_id, notification, sequence)
        self.delivery_records.append(record)
        return record

    def deliveries_for(self, client_id):
        return [r for r in self.delivery_records if r.client_id == client_id]

    def link_messages(self, kind=None, until=None, since=None):
        return _window(self.link_records, kind, until, since)

    def count_link_messages(self, kind=None, until=None, since=None):
        return len(self.link_messages(kind, until, since))

    def drops(self, kind=None, reason=None, until=None, since=None):
        records = _window(self.drop_records, kind, until, since)
        return [r for r in records if reason is None or r.reason == reason]

    def publishes(self, until=None):
        return [r for r in self.publish_records if until is None or r.time <= until]

    def clear(self):
        self.link_records.clear()
        self.delivery_records.clear()
        self.publish_records.clear()
        self.drop_records.clear()


def _window(records, kind, until, since):
    return [
        r
        for r in records
        if (kind is None or r.kind == kind)
        and (until is None or r.time <= until)
        and (since is None or r.time >= since)
    ]


def breakdown(trace, until=None, since=None):
    """``(notifications, admin, everything else)`` among the window's link records."""
    kinds = Counter(r.kind for r in trace.link_messages(until=until, since=since))
    notifications, admin = kinds[MessageKind.NOTIFICATION], kinds[MessageKind.ADMIN]
    return notifications, admin, sum(kinds.values()) - notifications - admin


def per_link(trace, until=None):
    return dict(Counter((r.source, r.target) for r in trace.link_messages(until=until)))


def per_message_type(trace, until=None):
    return dict(Counter(r.message_type for r in trace.link_messages(until=until)))


def cumulative_message_series(trace, sample_times, kind=None):
    records = trace.link_messages(kind=kind)
    return [(t, sum(1 for r in records if r.time <= t)) for t in sorted(sample_times)]


def messages_per_second(trace, horizon, bucket=1.0):
    counts = [0] * (int(horizon / bucket) + 1)
    for record in trace.link_records:
        if record.time <= horizon:
            counts[int(record.time / bucket)] += 1
    return [(index * bucket, count) for index, count in enumerate(counts)]
