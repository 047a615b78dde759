"""Scheduled fault windows (partitions) and drop attribution."""

import pytest

from repro.broker.network import PubSubNetwork
from repro.messages.base import MessageKind
from repro.messages.notification import Notification
from repro.metrics.recovery import dropped_by_reason
from repro.runtime.faults import FaultModel
from repro.runtime.latency import FixedLatency
from repro.runtime.trace import TraceRecorder
from repro.sim.engine import Simulator
from repro.sim.network import Link
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import line_topology


def make_notification(seq: int) -> Notification:
    return Notification({"index": seq}, publisher="p", publisher_seq=seq)


def make_fault(**kwargs) -> FaultModel:
    return FaultModel(DeterministicRandom(7), **kwargs)


class TestFaultModelSchedule:
    def test_partition_window_is_directed_and_half_open(self):
        fault = make_fault()
        fault.partition("A", "B", 1.0, 2.0)
        assert fault.link_down_reason("A", "B", 0.5) is None
        assert fault.link_down_reason("A", "B", 1.0) == "partition"
        assert fault.link_down_reason("A", "B", 1.999) == "partition"
        assert fault.link_down_reason("A", "B", 2.0) is None
        # The reverse direction is unaffected.
        assert fault.link_down_reason("B", "A", 1.5) is None

    def test_multiple_windows_per_link(self):
        fault = make_fault()
        fault.partition("A", "B", 1.0, 2.0)
        fault.partition("A", "B", 3.0, 4.0)
        assert fault.link_down_reason("A", "B", 1.5) == "partition"
        assert fault.link_down_reason("A", "B", 2.5) is None
        assert fault.link_down_reason("A", "B", 3.5) == "partition"

    def test_window_validation(self):
        fault = make_fault()
        with pytest.raises(ValueError):
            fault.partition("A", "B", 2.0, 1.0)
        with pytest.raises(ValueError):
            fault.partition("A", "B", 1.0, 1.0)
        with pytest.raises(ValueError):
            fault.partition("A", "B", -1.0, 1.0)

    def test_scheduled_faults_consume_no_rng_draws(self):
        """A failure schedule must not perturb the iid fault stream."""
        fault = make_fault(drop_probability=0.5)
        fault.partition("A", "B", 1.0, 2.0)
        fault.partition("B", "A", 1.0, 2.0)
        for now in (0.0, 1.5, 2.5):
            fault.link_down_reason("A", "B", now)
            fault.link_down_reason("B", "A", now)
        baseline = DeterministicRandom(7)
        assert fault.should_drop() == (baseline.random() < 0.5)

    def test_decide_checks_window_then_drop_then_duplicate(self):
        """Both backends' senders take this order, and with it the RNG stream."""
        fault = make_fault(drop_probability=0.5, duplicate_probability=0.5)
        fault.partition("A", "B", 1.0, 2.0)
        baseline = DeterministicRandom(7)
        for step in range(40):
            in_window = step % 4 == 0
            if in_window:
                expected = ("partition", 0)
            elif baseline.random() < 0.5:
                expected = ("loss", 0)  # a lost message draws no duplicate decision
            else:
                expected = (None, 2 if baseline.random() < 0.5 else 1)
            assert fault.decide("A", "B", 1.5 if in_window else 0.0) == expected


class TestLinkDropRecording:
    def _link(self, fault):
        simulator = Simulator()
        trace = TraceRecorder()
        collector = []
        link = Link(
            simulator,
            "A",
            "B",
            lambda message, link: collector.append(message),
            FixedLatency(0.1),
            trace=trace,
            fault_model=fault,
        )
        return simulator, trace, collector, link

    def test_message_inside_partition_window_is_dropped_and_recorded(self):
        fault = make_fault()
        fault.partition("A", "B", 0.0, 1.0)
        simulator, trace, collector, link = self._link(fault)
        link.send(make_notification(1))
        simulator.run_until(2.0)
        link.send(make_notification(2))
        simulator.run()
        assert [m.publisher_seq for m in collector] == [2]
        drops = trace.drops(reason="partition")
        assert len(drops) == 1
        record = drops[0]
        assert (record.source, record.target) == ("A", "B")
        assert record.kind == MessageKind.NOTIFICATION
        assert record.message_type == "Notification"
        assert record.time == 0.0

    def test_iid_loss_still_recorded_with_reason_loss(self):
        fault = make_fault(drop_probability=1.0)
        simulator, trace, collector, link = self._link(fault)
        link.send(make_notification(1))
        simulator.run()
        assert collector == []
        assert len(trace.drops(reason="loss")) == 1


class TestNetworkFaultSchedules:
    def _network_with_fault(self):
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.05)
        fault = FaultModel(DeterministicRandom(3))
        for link in network.links.values():
            link.fault_model = fault
        producer = network.add_client("producer", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("consumer", "B1")
        consumer.subscribe({"topic": "news"})
        network.settle()
        return network, fault, producer, consumer

    def test_partitioning_every_link_of_a_broker_blacks_out_deliveries(self):
        network, fault, producer, consumer = self._network_with_fault()
        t0 = network.now
        for source, target in network.links:
            if "B2" in (source, target):
                fault.partition(source, target, t0 + 0.5, t0 + 1.5)
        for offset in (0.0, 1.0, 2.0):
            network.run_until(t0 + offset)
            producer.publish({"topic": "news", "offset": offset})
        network.settle()
        offsets = [record.notification.get("offset") for record in consumer.received]
        assert offsets == [0.0, 2.0]
        assert dropped_by_reason(network.trace) == {"partition": 1}

    def test_partition_loss_is_attributed_in_the_trace(self):
        network, fault, producer, consumer = self._network_with_fault()
        t0 = network.now
        fault.partition("B2", "B1", t0 + 0.5, t0 + 1.5)
        for offset in (0.0, 1.0, 2.0):
            network.run_until(t0 + offset)
            producer.publish({"topic": "news", "offset": offset})
        network.settle()
        offsets = [record.notification.get("offset") for record in consumer.received]
        assert offsets == [0.0, 2.0]
        drops = network.trace.drops(kind=MessageKind.NOTIFICATION, reason="partition")
        assert len(drops) == 1
        assert (drops[0].source, drops[0].target) == ("B2", "B1")
