"""Unit tests for trace recording and queries."""

from repro.messages.base import MessageKind
from repro.messages.admin import Subscribe
from repro.messages.notification import Notification
from repro.filters.filter import Filter
from repro.runtime.trace import TraceRecorder


def make_notification(seq: int, **attrs) -> Notification:
    attributes = {"index": seq}
    attributes.update(attrs)
    return Notification(attributes, publisher="p", publisher_seq=seq)


class TestRecording:
    def test_link_records_window_queries(self):
        trace = TraceRecorder()
        trace.record_link(1.0, "A", "B", make_notification(1))
        trace.record_link(2.0, "B", "C", Subscribe(Filter({"a": 1}), subject="s"))
        trace.record_link(3.0, "A", "B", make_notification(2))
        assert trace.count_link_messages() == 3
        assert trace.count_link_messages(until=2.0) == 2
        assert trace.count_link_messages(since=2.0) == 2
        assert trace.count_link_messages(kind=MessageKind.NOTIFICATION) == 2
        assert trace.count_link_messages(kind=MessageKind.ADMIN) == 1

    def test_publish_and_delivery_records(self):
        trace = TraceRecorder()
        notification = make_notification(7, topic="news")
        trace.record_publish(0.5, notification)
        trace.record_delivery(1.5, "client", "sub-1", notification, sequence=3)
        assert len(trace.publishes()) == 1
        assert trace.publishes()[0].identity == ("p", 7)
        deliveries = trace.deliveries_for("client")
        assert len(deliveries) == 1
        assert deliveries[0].identity == ("p", 7)
        assert deliveries[0].sequence == 3
        assert dict(deliveries[0].attributes)["topic"] == "news"
        assert trace.deliveries_for("other") == []

    def test_publishes_window(self):
        trace = TraceRecorder()
        trace.record_publish(1.0, make_notification(1))
        trace.record_publish(5.0, make_notification(2))
        assert len(trace.publishes(until=2.0)) == 1

    def test_clear(self):
        trace = TraceRecorder()
        trace.record_publish(1.0, make_notification(1))
        trace.record_link(1.0, "A", "B", make_notification(2))
        trace.clear()
        assert trace.count_link_messages() == 0
        assert trace.publishes() == []
        assert trace.delivery_records == []
