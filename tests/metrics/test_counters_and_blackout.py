"""Unit tests for message counters and the blackout analysis."""

from repro.filters.filter import Filter
from repro.messages.admin import Subscribe
from repro.messages.mobility import LocationUpdate
from repro.messages.notification import Notification
from repro.metrics.blackout import measure_blackout
from repro.metrics.counters import MessageCounter, cumulative_message_series, messages_per_second
from repro.runtime.trace import TraceRecorder


def notification(seq, **attrs):
    return Notification(attrs, publisher="p", publisher_seq=seq)


def build_trace():
    trace = TraceRecorder()
    trace.record_link(1.0, "A", "B", notification(1, t="x"))
    trace.record_link(2.0, "B", "C", notification(1, t="x"))
    trace.record_link(2.5, "A", "B", Subscribe(Filter({"t": "x"}), subject="s"))
    trace.record_link(3.0, "A", "B", LocationUpdate("c", "s", "a", "b"))
    trace.record_link(9.0, "B", "C", notification(2, t="x"))
    return trace


class TestCounters:
    def test_breakdown_by_kind(self):
        counter = MessageCounter(build_trace())
        breakdown = counter.breakdown()
        assert breakdown.notifications == 3
        assert breakdown.admin == 1
        assert breakdown.mobility == 1
        assert breakdown.total == 5

    def test_breakdown_with_window(self):
        counter = MessageCounter(build_trace())
        assert counter.breakdown(until=2.5).total == 3
        assert counter.breakdown(since=2.5).total == 3
        assert counter.total(until=2.0) == 2

    def test_per_link_and_per_type(self):
        counter = MessageCounter(build_trace())
        per_link = counter.per_link()
        assert per_link[("A", "B")] == 3
        assert per_link[("B", "C")] == 2
        per_type = counter.per_message_type()
        assert per_type["Notification"] == 3
        assert per_type["Subscribe"] == 1

    def test_cumulative_series(self):
        series = cumulative_message_series(build_trace(), [1.0, 2.0, 5.0, 10.0])
        assert series == [(1.0, 1), (2.0, 2), (5.0, 4), (10.0, 5)]

    def test_cumulative_series_by_kind(self):
        from repro.messages.base import MessageKind

        series = cumulative_message_series(build_trace(), [10.0], kind=MessageKind.NOTIFICATION)
        assert series == [(10.0, 3)]

    def test_messages_per_second(self):
        buckets = dict(messages_per_second(build_trace(), horizon=10.0, bucket=1.0))
        assert buckets[1.0] == 1
        assert buckets[2.0] == 2
        assert buckets[9.0] == 1
        assert buckets[5.0] == 0


class TestBlackout:
    def build_trace(self):
        trace = TraceRecorder()
        for index in range(10):
            trace.record_publish(float(index), notification(index, topic="news"))
        # Deliveries only start at t=6 (subscription became effective late).
        for index in (5, 6, 7, 8, 9):
            trace.record_delivery(index + 1.0, "client", "sub", notification(index, topic="news"))
        return trace

    def test_blackout_measurement(self):
        trace = self.build_trace()
        report = measure_blackout(
            trace, "client", Filter({"topic": "news"}), subscribe_time=4.0
        )
        assert report.missed_count == 5  # publications 0..4 never delivered
        assert report.blackout_duration == 2.0  # first delivery at 6.0

    def test_window_restricts_publications(self):
        trace = self.build_trace()
        report = measure_blackout(
            trace, "client", Filter({"topic": "news"}), subscribe_time=4.0, window_start=5.0
        )
        assert report.missed_count == 0

    def test_no_deliveries_means_unbounded_blackout(self):
        trace = TraceRecorder()
        trace.record_publish(0.0, notification(1, topic="news"))
        report = measure_blackout(trace, "client", Filter({"topic": "news"}), subscribe_time=0.0)
        assert report.blackout_duration is None
        assert report.missed_count == 1
