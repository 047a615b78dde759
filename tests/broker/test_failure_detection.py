"""Heartbeat/lease failure detection and the in-flight retention window.

Two halves of "make recovery real": crashes are *observed* (a missed
lease, not a scripted takeover call), and the notifications that were in
flight into the crashed broker are *retained* by the upstream neighbour
and replayed to the takeover broker — so a durable subscriber loses
nothing even when its border broker dies mid-delivery.  The
kill-at-any-point sweep at the bottom is the acceptance bar: crash the
border broker between any two publishes and the durable subscriber still
ends with the complete, duplicate-free, gap-free history.
"""

import pytest

from repro.broker.base import BrokerConfig
from repro.broker.client import Client
from repro.experiments.backends import Backend, build_network
from repro.messages.notification import Notification
from repro.metrics.qos import check_completeness, check_fifo, check_no_duplicates
from repro.filters.filter import Filter
from repro.topology.builders import line_topology


def _network(brokers=3, retention=None, backend=Backend()):
    network = build_network(
        line_topology(brokers),
        strategy="covering",
        latency=0.05,
        backend=backend,
        config=BrokerConfig(forward_retention=retention),
    )
    network.enable_recovery()
    producer = network.add_client("producer", "B{}".format(brokers))
    producer.advertise({"topic": "news"})
    consumer = network.add_client("consumer", "B1")
    consumer.subscribe({"topic": "news"}, subscription_id="s1", durable=True)
    network.settle()
    return network, producer, consumer


# ----------------------------------------------------------------------
# Heartbeats and lease-based detection
# ----------------------------------------------------------------------
class TestFailureDetection:
    def test_heartbeats_update_last_heard(self):
        network, _, _ = _network()
        network.enable_failure_detection(
            heartbeat_interval=0.5, lease_timeout=1.2, until=network.now + 1.0
        )
        network.settle()
        b2 = network.broker("B2")
        assert b2.counters["heartbeats_sent"] > 0
        assert set(b2.reliability.heartbeat_last_heard) == {"B1", "B3"}
        # Beacons arrive one link latency after the tick that sent them.
        assert b2.reliability.heartbeat_last_heard["B1"] > 0

    def test_detector_rejects_degenerate_parameters(self):
        network, _, _ = _network()
        with pytest.raises(ValueError):
            network.enable_failure_detection(0.0, 1.0, until=network.now + 1.0)
        with pytest.raises(ValueError):
            network.enable_failure_detection(1.0, 0.5, until=network.now + 1.0)
        network.close()

    def test_missed_lease_is_observed_and_orphans_adopted(self):
        network, producer, consumer = _network(retention=8)
        detector = network.enable_failure_detection(
            heartbeat_interval=0.5, lease_timeout=1.2, until=network.now + 2.0
        )
        crash_time = network.now
        network.crash_broker("B1")  # nobody scripts a takeover
        network.settle()
        assert detector.suspected() == ["B1"]
        assert len(detector.detections) == 1
        time, suspect, observer = detector.detections[0]
        assert (suspect, observer) == ("B1", "B2")
        # Detection fires at the first tick past the lease: silent since
        # the detector started, so crash_time + 1.5 with these knobs.
        assert time == pytest.approx(crash_time + 1.5)
        # The orphaned durable subscriber now lives on the observer.
        assert consumer.border_broker is network.broker("B2")
        producer.publish({"topic": "news", "n": 1})
        network.settle()
        assert len(consumer.received) == 1
        network.close()

    def test_healthy_brokers_are_never_suspected(self):
        network, _, _ = _network()
        detector = network.enable_failure_detection(
            heartbeat_interval=0.5, lease_timeout=1.2, until=network.now + 3.0
        )
        network.settle()
        assert detector.suspected() == []
        assert detector.detections == []
        network.close()

    def test_restart_clears_suspicion(self):
        network, _, _ = _network(retention=8)
        detector = network.enable_failure_detection(
            heartbeat_interval=0.5, lease_timeout=1.2, until=network.now + 2.0
        )
        network.crash_broker("B1")
        network.settle()
        assert detector.suspected() == ["B1"]
        network.restart_broker("B1")
        assert detector.suspected() == []
        network.close()

    def test_detection_time_is_backend_identical(self):
        results = []
        for backend in (Backend("sim"), Backend("aio-memory")):
            network, _, _ = _network(retention=8, backend=backend)
            detector = network.enable_failure_detection(
                heartbeat_interval=0.5, lease_timeout=1.2, until=network.now + 2.0
            )
            network.crash_broker("B1")
            network.settle()
            results.append(list(detector.detections))
            network.close()
        assert results[0] == results[1]


# ----------------------------------------------------------------------
# In-flight retention: wrap, ack, prune, replay
# ----------------------------------------------------------------------
class TestForwardRetention:
    def test_forwards_are_acked_and_pruned_in_steady_state(self):
        network, producer, consumer = _network(retention=8)
        producer.publish({"topic": "news", "n": 1})
        network.settle()
        b2 = network.broker("B2")
        assert b2.counters["forwards_retained"] > 0
        assert b2.counters["forwards_acked"] == b2.counters["forwards_retained"]
        assert b2.reliability.retained_forwards("B1") == []
        assert len(consumer.received) == 1
        network.close()

    def test_unacked_forwards_stay_retained_when_receiver_is_down(self):
        network, producer, consumer = _network(retention=8)
        network.crash_broker("B1")
        for index in range(3):
            producer.publish({"topic": "news", "n": index})
        network.settle()
        b2 = network.broker("B2")
        window = b2.reliability.retained_forwards("B1")
        assert [seq for seq, _ in window] == [1, 2, 3]
        assert b2.counters["forwards_acked"] == 0
        network.close()

    def test_retention_window_is_bounded(self):
        network, producer, _ = _network(retention=2)
        network.crash_broker("B1")
        for index in range(5):
            producer.publish({"topic": "news", "n": index})
        network.settle()
        b2 = network.broker("B2")
        assert [seq for seq, _ in b2.reliability.retained_forwards("B1")] == [4, 5]
        assert b2.counters["retention_evicted"] == 3
        network.close()

    def test_takeover_replays_retained_window_without_duplicates(self):
        network, producer, consumer = _network(retention=8)
        producer.publish({"topic": "news", "n": 0})
        network.settle()
        network.crash_broker("B1")
        for index in range(1, 4):
            producer.publish({"topic": "news", "n": index})
        network.settle()
        assert len(consumer.received) == 1  # only the pre-crash one
        adopted = network.failover_orphans("B1", adopter="B2")
        assert adopted == 1
        b2 = network.broker("B2")
        assert b2.counters["retention_replayed"] == 3
        assert b2.physical.relocation_records[-1].replayed == 3
        # Zero loss, exactly once, sequence numbering intact.
        assert [record.sequence for record in consumer.received] == [1, 2, 3, 4]
        assert consumer.unfilled_gap_ranges() == []
        assert check_no_duplicates(network.trace, "consumer").clean
        network.close()

    def test_replay_respects_the_subscription_filter(self):
        network, producer, consumer = _network(retention=8)
        producer.advertise({"topic": "weather"}, advertisement_id="weather")
        other = network.add_client("other", "B1")
        other.subscribe({"topic": "weather"}, subscription_id="w1", durable=True)
        network.settle()
        network.crash_broker("B1")
        producer.publish({"topic": "news", "n": 1})
        producer.publish({"topic": "weather", "n": 2})
        network.settle()
        network.failover_orphans("B1", adopter="B2")
        assert [r.notification.attributes["topic"] for r in consumer.received] == ["news"]
        assert [r.notification.attributes["topic"] for r in other.received] == ["weather"]
        network.close()


# ----------------------------------------------------------------------
# Per-subscription gap ranges on the client
# ----------------------------------------------------------------------
class TestGapRanges:
    def test_gap_ranges_record_which_sequences_were_lost(self):
        client = Client("c")
        client.subscribe({"topic": "news"}, subscription_id="s1", durable=True)
        note = Notification({"topic": "news"}, publisher="p", publisher_seq=1)
        client.deliver("s1", note, 1)
        client.deliver("s1", note, 5)
        assert client.counters["gaps_detected"] == 1
        assert client.unfilled_gap_ranges("s1") == [(2, 4)]
        assert client.unfilled_gap_ranges() == [(2, 4)]

    def test_redelivery_fills_and_splits_gap_ranges(self):
        client = Client("c")
        client.subscribe({"topic": "news"}, subscription_id="s1", durable=True)
        note = Notification({"topic": "news"}, publisher="p", publisher_seq=1)
        client.deliver("s1", note, 1)
        client.deliver("s1", note, 5)
        client.deliver("s1", note, 3)  # mid-gap redelivery splits the range
        assert client.unfilled_gap_ranges("s1") == [(2, 2), (4, 4)]
        client.deliver("s1", note, 2)
        client.deliver("s1", note, 4)
        assert client.unfilled_gap_ranges("s1") == []
        # Filled redeliveries are still suppressed as duplicates.
        assert client.counters["duplicates_suppressed"] == 3
        assert len(client.received) == 2

    def test_gap_ranges_are_per_subscription(self):
        client = Client("c")
        client.subscribe({"topic": "a"}, subscription_id="s1", durable=True)
        client.subscribe({"topic": "b"}, subscription_id="s2", durable=True)
        note = Notification({"topic": "a"}, publisher="p", publisher_seq=1)
        client.deliver("s1", note, 2)
        client.deliver("s2", note, 4)
        assert client.unfilled_gap_ranges("s1") == [(1, 1)]
        assert client.unfilled_gap_ranges("s2") == [(1, 3)]
        assert client.unfilled_gap_ranges() == [(1, 1), (1, 3)]


# ----------------------------------------------------------------------
# Kill-at-any-point: zero durable loss with detection + retention on
# ----------------------------------------------------------------------
TOTAL_PUBLISHES = 6


@pytest.mark.parametrize("crash_after", range(TOTAL_PUBLISHES + 1))
def test_crash_between_any_two_publishes_loses_nothing(crash_after):
    """Crash the border broker at every point of a publish stream.

    ``crash_after`` publishes land normally, the crash happens, the rest
    are published while the broker is dark — some die inside it mid
    flight — and the lease detector adopts the orphan.  Whatever the
    crash point, the durable subscriber must end with the full stream:
    complete, exactly once, FIFO, and with every detected gap filled.
    """
    network, producer, consumer = _network(retention=16)
    detector = network.enable_failure_detection(
        heartbeat_interval=0.5,
        lease_timeout=1.2,
        until=network.now + TOTAL_PUBLISHES * 0.2 + 2.0,
    )
    for index in range(TOTAL_PUBLISHES):
        if index == crash_after:
            network.crash_broker("B1")
        producer.publish({"topic": "news", "n": index})
        network.run_for(0.2)
    if crash_after == TOTAL_PUBLISHES:
        network.crash_broker("B1")
    network.settle()

    assert detector.detections and detector.detections[0][1] == "B1"
    received = [record.notification.attributes["n"] for record in consumer.received]
    assert received == list(range(TOTAL_PUBLISHES))
    assert consumer.unfilled_gap_ranges() == []
    filter_ = Filter({"topic": "news"})
    assert check_completeness(network.trace, "consumer", filter_).complete
    assert check_no_duplicates(network.trace, "consumer").clean
    assert check_fifo(network.trace, "consumer").ordered
    network.close()


def test_crash_sweep_without_retention_shows_the_gap():
    """Control: the same crash *without* retention does lose in flight
    notifications — the window the tentpole closes is real."""
    network, producer, consumer = _network(retention=None)
    network.enable_failure_detection(
        heartbeat_interval=0.5, lease_timeout=1.2, until=network.now + 3.0
    )
    network.crash_broker("B1")
    for index in range(3):
        producer.publish({"topic": "news", "n": index})
    network.settle()
    assert consumer.border_broker is network.broker("B2")
    assert consumer.received == []  # the in-flight window died with B1
    network.close()
