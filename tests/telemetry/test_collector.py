"""End-to-end collector tests: framed TCP streams into live aggregates."""

import socket
import time

from repro.broker.network import PubSubNetwork
from repro.messages.wire import encode_frame
from repro.runtime.factory import make_runtime
from repro.telemetry import TcpSink, TelemetryConfig
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.events import LogEvent
from repro.topology.builders import line_topology


def _wait_until(predicate, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_collector_aggregate_equals_end_of_run_counters_aio_tcp():
    """An aio-tcp experiment streams frames to a live collector; once the
    run closes, the collector's latest-per-broker snapshots equal the
    brokers' end-of-run counters exactly (the reconciliation the issue's
    acceptance criteria pin)."""
    with TelemetryCollector() as collector:
        host, port = collector.address
        config = TelemetryConfig(sink_factory=lambda: TcpSink(host, port))
        network = PubSubNetwork(
            line_topology(3),
            strategy="covering",
            runtime=make_runtime("aio-tcp", latency=0.05),
            telemetry=config,
        )
        producer = network.add_client("P", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("C", "B1")
        consumer.subscribe({"topic": "news", "grade": "a"})
        network.settle()
        for index in range(7):
            producer.publish({"topic": "news", "grade": "a", "seq": index})
        network.settle()
        expected = {
            name: broker.metrics.counter_snapshot()
            for name, broker in network.brokers.items()
        }
        scoped = network.data_plane_breakdown()
        network.close()

        assert len(consumer.received) == 7
        assert _wait_until(
            lambda: set(collector.aggregate.broker_counters()) == set(expected)
            and collector.aggregate.broker_counters() == expected
        ), "collector never converged on the end-of-run counters"

        # The rolled-up totals reconcile with the scoped breakdown and
        # the delivery counts — byte-exact, not approximately.
        totals = collector.aggregate.totals()
        assert totals["notifications_delivered"] == 7
        for key in ("constraint_evals", "dispatch_matches"):
            assert totals[key] == scoped[key]
        # Spans streamed too: at least one dispatch/forward/deliver chain.
        spans = collector.aggregate.span_list()
        assert {span.hop for span in spans} >= {"dispatch", "forward", "deliver"}


def test_collector_tolerates_torn_final_frame():
    """A sender killed mid-write leaves a torn final frame; the collector
    keeps everything before it and counts the tear instead of raising."""
    with TelemetryCollector() as collector:
        host, port = collector.address
        whole = encode_frame(LogEvent("B1", 1.0, "info", "whole frame"))
        torn = encode_frame(LogEvent("B1", 2.0, "info", "torn frame"))[:-3]
        sock = socket.create_connection((host, port))
        try:
            sock.sendall(whole + torn)
        finally:
            sock.close()
        assert _wait_until(lambda: collector.aggregate.torn_frames == 1)
        assert collector.aggregate.events_ingested == 1
        assert [log.text for log in collector.aggregate.log_list()] == ["whole frame"]


def test_collector_skips_a_malformed_frame_and_keeps_reading():
    """A whole frame whose payload is valid JSON of the wrong shape is
    skipped; the connection's handler survives it and ingests the rest."""
    with TelemetryCollector() as collector:
        host, port = collector.address
        before = encode_frame(LogEvent("B1", 1.0, "info", "before"))
        malformed = len(b"[1,2]").to_bytes(4, "big") + b"[1,2]"
        after = encode_frame(LogEvent("B1", 2.0, "info", "after"))
        sock = socket.create_connection((host, port))
        try:
            sock.sendall(before + malformed + after)
        finally:
            sock.close()
        assert _wait_until(lambda: collector.aggregate.events_ingested == 2)
        assert [log.text for log in collector.aggregate.log_list()] == ["before", "after"]
        assert collector.aggregate.torn_frames == 0


def test_collector_scopes_snapshots_per_connection():
    """Two networks reusing broker names stream over distinct connections;
    the collector must sum them, not let one overwrite the other."""
    from repro.telemetry.events import MetricSnapshotEvent

    with TelemetryCollector() as collector:
        host, port = collector.address
        for run_time, value in ((1.0, 10), (1.0, 32)):
            sink = TcpSink(host, port)
            sink.emit(MetricSnapshotEvent("B1", run_time, {"notifications_delivered": value}))
            sink.close()
        assert _wait_until(lambda: len(collector.aggregate.snapshots) == 2)
        assert collector.aggregate.totals() == {"notifications_delivered": 42}
        assert collector.aggregate.broker_counters() == {
            "B1": {"notifications_delivered": 42}
        }
