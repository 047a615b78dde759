"""Unit tests for the QoS checkers."""

import pytest

from repro.filters.filter import Filter
from repro.messages.notification import Notification
from repro.metrics.qos import (
    LocationTimeline,
    check_completeness,
    check_epoch_semantics,
    check_fifo,
    check_no_duplicates,
    expected_identities,
    flooding_reference_set,
)
from repro.runtime.trace import TraceRecorder


def notification(seq, **attrs):
    return Notification(attrs, publisher="p", publisher_seq=seq)


def build_trace(published, delivered):
    """Helper: publish/delivery records from terse specs."""
    trace = TraceRecorder()
    by_seq = {}
    for time, seq, attrs in published:
        msg = notification(seq, **attrs)
        by_seq[seq] = msg
        trace.record_publish(time, msg)
    for time, seq in delivered:
        trace.record_delivery(time, "client", "sub", by_seq[seq], sequence=None)
    return trace


class TestCompleteness:
    def test_complete_and_exact(self):
        trace = build_trace(
            published=[(0, 1, {"t": "x"}), (1, 2, {"t": "x"}), (2, 3, {"t": "y"})],
            delivered=[(1, 1), (2, 2)],
        )
        report = check_completeness(trace, "client", Filter({"t": "x"}))
        assert report.complete and report.exact
        assert report.missing == set()

    def test_missing_detected(self):
        trace = build_trace(published=[(0, 1, {"t": "x"}), (1, 2, {"t": "x"})], delivered=[(1, 1)])
        report = check_completeness(trace, "client", Filter({"t": "x"}))
        assert not report.complete
        assert report.missing == {("p", 2)}

    def test_unexpected_detected(self):
        trace = build_trace(published=[(0, 1, {"t": "y"})], delivered=[(1, 1)])
        report = check_completeness(trace, "client", Filter({"t": "x"}))
        assert report.complete  # nothing expected
        assert report.unexpected == {("p", 1)}
        assert not report.exact

    def test_time_window(self):
        trace = build_trace(
            published=[(0, 1, {"t": "x"}), (5, 2, {"t": "x"}), (10, 3, {"t": "x"})],
            delivered=[(6, 2)],
        )
        report = check_completeness(trace, "client", Filter({"t": "x"}), since=4, until=8)
        assert report.complete and report.exact

    def test_expected_identities_helper(self):
        trace = build_trace(published=[(0, 1, {"t": "x"}), (1, 2, {"t": "y"})], delivered=[])
        assert expected_identities(trace.publish_records, Filter({"t": "x"})) == {("p", 1)}


class TestDuplicatesAndFifo:
    def test_duplicates_counted(self):
        trace = build_trace(published=[(0, 1, {"t": "x"})], delivered=[(1, 1), (2, 1), (3, 1)])
        report = check_no_duplicates(trace, "client")
        assert not report.clean
        assert report.duplicate_count == 2
        assert report.duplicates[("p", 1)] == 3

    def test_clean_when_single_delivery(self):
        trace = build_trace(published=[(0, 1, {"t": "x"})], delivered=[(1, 1)])
        assert check_no_duplicates(trace, "client").clean

    def test_fifo_ok(self):
        trace = build_trace(
            published=[(0, 1, {}), (1, 2, {}), (2, 3, {})], delivered=[(3, 1), (4, 2), (5, 3)]
        )
        assert check_fifo(trace, "client").ordered

    def test_fifo_violation_detected(self):
        trace = build_trace(published=[(0, 1, {}), (1, 2, {})], delivered=[(3, 2), (4, 1)])
        report = check_fifo(trace, "client")
        assert not report.ordered
        assert report.violations == [("p", 2, 1)]

    def test_fifo_per_publisher(self):
        trace = TraceRecorder()
        a1 = Notification({}, "a", 1)
        b1 = Notification({}, "b", 1)
        a2 = Notification({}, "a", 2)
        for msg in (a1, b1, a2):
            trace.record_publish(0, msg)
        trace.record_delivery(1, "client", "sub", b1)
        trace.record_delivery(2, "client", "sub", a1)
        trace.record_delivery(3, "client", "sub", a2)
        assert check_fifo(trace, "client").ordered


class TestEpochSemantics:
    def test_location_timeline(self):
        timeline = LocationTimeline([(0.0, "a"), (5.0, "b")])
        assert timeline.location_at(0.0) == "a"
        assert timeline.location_at(4.9) == "a"
        assert timeline.location_at(5.0) == "b"
        assert timeline.location_at(100.0) == "b"
        with pytest.raises(ValueError):
            LocationTimeline([])

    def test_flooding_reference_set(self):
        trace = build_trace(
            published=[
                (0.0, 1, {"s": "x", "location": "a"}),
                (4.0, 2, {"s": "x", "location": "a"}),
                (4.0, 3, {"s": "x", "location": "b"}),
                (6.0, 4, {"s": "y", "location": "b"}),
            ],
            delivered=[],
        )
        timeline = LocationTimeline([(0.0, "a"), (5.0, "b")])
        expected = flooding_reference_set(
            trace.publish_records,
            base_filter=Filter({"s": "x"}),
            location_attribute="location",
            timeline=timeline,
            myloc=lambda loc: {loc},
            delivery_delay=1.5,
        )
        # seq 1 arrives at 1.5 while at "a" -> expected; seq 2 arrives at 5.5
        # while at "b" but is for "a" -> not expected; seq 3 arrives at 5.5 at
        # "b" for "b" -> expected; seq 4 fails the base filter.
        assert expected == {("p", 1), ("p", 3)}

    def test_epoch_report(self):
        trace = build_trace(
            published=[
                (0.0, 1, {"s": "x", "location": "a"}),
                (1.0, 2, {"s": "x", "location": "b"}),
            ],
            delivered=[(1.0, 1)],
        )
        timeline = LocationTimeline([(0.0, "a")])
        report = check_epoch_semantics(
            trace,
            "client",
            base_filter=Filter({"s": "x"}),
            location_attribute="location",
            timeline=timeline,
            myloc=lambda loc: {loc},
            delivery_delay=0.5,
        )
        assert report.matches_flooding
        assert report.missing == set() and report.spurious == set()
