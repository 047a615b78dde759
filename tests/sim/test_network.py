"""Unit tests for simulated links (FIFO, latency, fault injection)."""

import pytest

from repro.messages.admin import Subscribe
from repro.messages.notification import Notification
from repro.filters.filter import Filter
from repro.runtime.faults import FaultModel
from repro.runtime.latency import FixedLatency, UniformLatency
from repro.runtime.trace import TraceRecorder
from repro.sim.engine import Simulator
from repro.sim.network import Link
from repro.sim.rng import DeterministicRandom
from tests.oracles.link import PerMessageLink


def make_notification(seq: int) -> Notification:
    return Notification({"index": seq}, publisher="p", publisher_seq=seq)


class Collector:
    def __init__(self):
        self.messages = []

    def __call__(self, message, link):
        self.messages.append(message)


class TestLatencyAndFifo:
    def test_fixed_latency_delivery_time(self):
        simulator = Simulator()
        times = []
        link = Link(
            simulator,
            "A",
            "B",
            lambda message, link: times.append(simulator.now),
            FixedLatency(0.5),
        )
        link.send(make_notification(1))
        simulator.run()
        assert times == [0.5]

    def test_fifo_order_with_fixed_latency(self):
        simulator = Simulator()
        collector = Collector()
        link = Link(simulator, "A", "B", collector, FixedLatency(0.1))
        for seq in range(5):
            link.send(make_notification(seq))
        simulator.run()
        assert [m.publisher_seq for m in collector.messages] == list(range(5))

    def test_fifo_order_with_jittering_latency(self):
        simulator = Simulator()
        collector = Collector()
        rng = DeterministicRandom(3)
        link = Link(simulator, "A", "B", collector, UniformLatency(0.0, 1.0, rng))
        for seq in range(50):
            link.send(make_notification(seq))
        simulator.run()
        assert [m.publisher_seq for m in collector.messages] == list(range(50))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            FixedLatency(-1)
        with pytest.raises(ValueError):
            UniformLatency(2, 1, DeterministicRandom(1))

    def test_counters(self):
        simulator = Simulator()
        collector = Collector()
        link = Link(simulator, "A", "B", collector, FixedLatency(0.1))
        link.send(make_notification(1))
        link.send(make_notification(2))
        simulator.run()
        assert link.sent_count == 2
        assert link.delivered_count == 2
        assert link.dropped_count == 0

    def test_link_name(self):
        simulator = Simulator()
        link = Link(simulator, "A", "B", Collector(), FixedLatency(0.1))
        assert link.name == "A->B"


class TestTracing:
    def test_trace_records_every_send(self):
        simulator = Simulator()
        trace = TraceRecorder()
        link = Link(simulator, "A", "B", Collector(), FixedLatency(0.1), trace=trace)
        link.send(make_notification(1))
        link.send(Subscribe(Filter({"a": 1}), subject="client"))
        simulator.run()
        assert trace.count_link_messages() == 2
        types = {record.message_type for record in trace.link_records}
        assert types == {"Notification", "Subscribe"}


class TestFaultInjection:
    def test_drops_reduce_deliveries(self):
        simulator = Simulator()
        collector = Collector()
        fault = FaultModel(DeterministicRandom(5), drop_probability=0.5)
        link = Link(simulator, "A", "B", collector, FixedLatency(0.01), fault_model=fault)
        for seq in range(200):
            link.send(make_notification(seq))
        simulator.run()
        assert 0 < len(collector.messages) < 200
        assert link.dropped_count == 200 - len(collector.messages)

    def test_duplicates_increase_deliveries(self):
        simulator = Simulator()
        collector = Collector()
        fault = FaultModel(DeterministicRandom(5), duplicate_probability=0.5)
        link = Link(simulator, "A", "B", collector, FixedLatency(0.01), fault_model=fault)
        for seq in range(100):
            link.send(make_notification(seq))
        simulator.run()
        assert len(collector.messages) > 100

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            FaultModel(DeterministicRandom(1), drop_probability=1.5)

    def test_no_faults_by_default(self):
        fault = FaultModel(DeterministicRandom(1))
        assert not fault.should_drop()
        assert not fault.should_duplicate()


class TestBatchedDelivery:
    """Flush events must preserve the per-message link of tests/oracles/link.py."""

    def _run_workload(self, link_class, seed, messages=300):
        """Random bursts + jitter + faults; returns (deliveries, link, events)."""
        simulator = Simulator()
        delivered = []
        rng = DeterministicRandom(seed)
        fault = FaultModel(
            DeterministicRandom(seed + 1), drop_probability=0.1, duplicate_probability=0.1
        )
        link = link_class(
            simulator,
            "A",
            "B",
            lambda message, _: delivered.append((simulator.now, message.publisher_seq)),
            UniformLatency(0.0, 0.5, DeterministicRandom(seed + 2)),
            fault_model=fault,
        )
        sequence = 0
        # Bursts of same-instant sends interleaved with time advances, so
        # flushes coalesce some messages and re-arm for others.
        while sequence < messages:
            for _ in range(rng.randint(1, 6)):
                link.send(make_notification(sequence))
                sequence += 1
            simulator.run_until(simulator.now + rng.uniform(0.0, 0.3))
        simulator.run()
        return delivered, link, simulator.processed_events

    @pytest.mark.parametrize("seed", [7, 19, 42])
    def test_batched_matches_per_message_oracle(self, seed):
        """Same deliveries, same times, same drops/dups — flushing only cuts events."""
        batched, batched_link, batched_events = self._run_workload(Link, seed)
        plain, plain_link, plain_events = self._run_workload(PerMessageLink, seed)
        assert batched == plain
        assert batched_link.dropped_count == plain_link.dropped_count
        assert batched_link.delivered_count == plain_link.delivered_count
        assert batched_events < plain_events

    @pytest.mark.parametrize("seed", [3, 11])
    def test_fifo_clamp_under_batched_flush(self, seed):
        """Delivery order equals send order and times never regress."""
        delivered, _, _ = self._run_workload(Link, seed)
        sequences = [sequence for _, sequence in delivered]
        # Duplicates repeat a sequence number back-to-back; stripping them
        # must leave a strictly increasing send order.
        deduplicated = [s for i, s in enumerate(sequences) if i == 0 or s != sequences[i - 1]]
        assert deduplicated == sorted(deduplicated)
        times = [time for time, _ in delivered]
        assert all(later >= earlier for earlier, later in zip(times, times[1:]))

    def test_fault_semantics_per_message(self):
        """Drops and duplicates are decided per message, not per flush."""
        simulator = Simulator()
        delivered = []
        fault = FaultModel(
            DeterministicRandom(5), drop_probability=0.3, duplicate_probability=0.3
        )
        link = Link(
            simulator,
            "A",
            "B",
            lambda message, _: delivered.append(message.publisher_seq),
            FixedLatency(0.01),
            fault_model=fault,
        )
        for sequence in range(400):
            link.send(make_notification(sequence))  # one instant, one flush
        simulator.run()
        assert link.sent_count == 400
        assert link.dropped_count > 0
        assert len(delivered) == link.delivered_count
        duplicates = len(delivered) - len(set(delivered))
        assert duplicates > 0
        assert len(set(delivered)) == 400 - link.dropped_count

    def test_same_instant_sends_coalesce_into_one_event(self):
        simulator = Simulator()
        collector = Collector()
        link = Link(simulator, "A", "B", collector, FixedLatency(0.1))
        for sequence in range(50):
            link.send(make_notification(sequence))
        simulator.run()
        assert link.flush_count == 1
        assert simulator.processed_events == 1
        assert [m.publisher_seq for m in collector.messages] == list(range(50))
