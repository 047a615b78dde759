"""Cut-off and crashed brokers on the asyncio backend must not hang ``settle``.

Regression battery for the in-flight accounting: a message dropped before
it reaches the transport must never count as in flight — with no reader
ever consuming it, ``settle`` would wait forever for a quiescence that
cannot come.  The asyncio backend drops on the two paths the simulator
has:

* at send time, inside a :meth:`~repro.runtime.faults.FaultModel.partition`
  window on each of a broker's links — decided by the link, the same
  ``Link`` on both backends, so the message is never in flight;
* at delivery time, into a broker ``network.crash_broker`` took down —
  the frame crosses the transport and the broker's own intake gate drops
  and counts it, as on the simulator.
"""

import pytest

from repro.broker.network import PubSubNetwork
from repro.runtime.factory import make_runtime
from repro.runtime.faults import FaultModel
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import line_topology
from tests.runtime.test_backend_parity import AIO_BACKENDS


def _network(backend, recovery=False):
    """A B1 - B2 - B3 line: producer at B3, consumer at B1, faults on every link."""
    network = PubSubNetwork(line_topology(3), runtime=make_runtime(backend))
    if recovery:
        network.enable_recovery()
    faults = FaultModel(DeterministicRandom(1))
    for link in network.links.values():
        link.fault_model = faults
    producer = network.add_client("producer", "B3")
    producer.advertise({"topic": "news"})
    consumer = network.add_client("consumer", "B1")
    consumer.subscribe({"topic": "news"})
    try:
        network.settle()
    except OSError as error:  # pragma: no cover - sandboxed environments
        network.close()
        pytest.skip("loopback sockets unavailable: {}".format(error))
    return network, faults, producer, consumer


def _cut_off(network, faults, broker, t_from, t_to):
    """Partition every link into and out of *broker* during ``[t_from, t_to)``."""
    for source, target in network.links:
        if broker in (source, target):
            faults.partition(source, target, t_from, t_to)


def _received(client):
    return [record.notification.get("n") for record in client.received]


@pytest.mark.parametrize("backend", AIO_BACKENDS)
class TestCutOffWindow:
    def test_settle_returns_and_drops_are_attributed(self, backend):
        network, faults, producer, consumer = _network(backend)
        try:
            start = network.now
            _cut_off(network, faults, "B2", start, start + 1.0)
            producer.publish({"topic": "news", "n": 1})
            network.settle(max_events=10_000)
            assert consumer.received == []
            drops = network.trace.drops(reason="partition")
            assert [(d.source, d.target, d.time) for d in drops] == [("B3", "B2", start)]
            assert network.links[("B3", "B2")].dropped_count == 1
        finally:
            network.close()

    def test_delivery_resumes_after_the_window(self, backend):
        network, faults, producer, consumer = _network(backend)
        try:
            start = network.now
            _cut_off(network, faults, "B2", start, start + 1.0)
            producer.publish({"topic": "news", "n": 1})
            network.clock.schedule(1.0, producer.publish, {"topic": "news", "n": 2})
            network.settle(max_events=10_000)
            assert _received(consumer) == [2]
        finally:
            network.close()

    def test_the_window_cuts_off_one_broker(self, backend):
        network, faults, producer, consumer = _network(backend)
        try:
            _cut_off(network, faults, "B2", network.now, network.now + 1.0)
            # Links not touching B2 keep flowing: a subscriber local to
            # the producer's broker still gets its deliveries.
            local = network.add_client("local", "B3")
            local.subscribe({"topic": "news"})
            network.settle(max_events=10_000)
            producer.publish({"topic": "news", "n": 1})
            network.settle(max_events=10_000)
            assert _received(local) == [1]
            assert consumer.received == []
        finally:
            network.close()

    def test_messages_sent_before_the_window_still_arrive(self, backend):
        """The fate of a message is decided when it is sent, as on the simulator."""
        network, faults, producer, consumer = _network(backend)
        try:
            producer.publish({"topic": "news", "n": 1})  # on the wire for 50 ms per hop
            _cut_off(network, faults, "B1", network.now + 0.06, network.now + 1.0)
            network.settle(max_events=10_000)
            assert _received(consumer) == [1]
            assert network.trace.drops() == []
        finally:
            network.close()


@pytest.mark.parametrize("backend", AIO_BACKENDS)
class TestCrashedBroker:
    def test_messages_reaching_a_crashed_broker_drop_on_arrival(self, backend):
        """Sent before the crash, dropped when due, and ``settle`` returns."""
        network, _, producer, consumer = _network(backend, recovery=True)
        try:
            sent_at = network.now
            producer.publish({"topic": "news", "n": 1})
            network.crash_broker("B2")
            network.settle(max_events=10_000)
            assert consumer.received == []
            drops = network.trace.drops(reason="broker-down")
            assert [(drop.source, drop.target) for drop in drops] == [("B3", "B2")]
            assert drops[0].time > sent_at  # at delivery time, not at send time
            assert network.broker("B2").counters["messages_dropped_down"] == 1

            network.restart_broker("B2")
            producer.publish({"topic": "news", "n": 2})
            network.settle(max_events=10_000)
            assert _received(consumer) == [2]
        finally:
            network.close()
