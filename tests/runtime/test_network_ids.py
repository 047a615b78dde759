"""Network-owned ids: a run's message ids depend on its own network only.

A network stamps every message its brokers, clients and recovery stores
build from its one id source, and a decoded message keeps the id it was
sent with.  So the same seeded schedule, run twice in one process, gives
the same trace, ids included, and the same bytes on every link, on every
backend — the property a replaying test (a shrinking state machine on an
``aio-*`` backend) needs.
"""

import pytest

from repro.broker.network import PubSubNetwork
from repro.core.adaptivity import UncertaintyPlan
from repro.core.ploc import MovementGraph
from repro.messages.wire import encode_frame
from repro.runtime.factory import BACKENDS
from repro.sim.rng import DeterministicRandom
from repro.telemetry import RingBufferSink, TelemetryConfig
from repro.topology.builders import line_topology
from tests.oracles.trace import message_keeping_runtime
from tests.runtime.test_backend_parity import _trace_fingerprint

#: Where the consumers live and roam; B3 hosts no client, so it can crash.
BORDERS = ("B2", "B4", "B5")


def _run(backend, seed):
    """One seeded schedule on a fresh 5-broker line.

    Subscribe, advertise, publish, ``detach`` / ``move_to``, a
    location-dependent subscription that moves, recovery on every broker
    with a snapshot, a crash and a restart of B3, and telemetry on.
    Returns the trace fingerprint, ``(id, encode_frame bytes)`` of every
    message on a link in record order, and the telemetry event ids.
    """
    sink = RingBufferSink()
    network = PubSubNetwork(
        line_topology(5),
        strategy="covering",
        runtime=message_keeping_runtime(backend, latency=0.05),
        telemetry=TelemetryConfig(sink_factory=lambda: sink),
    )
    try:
        network.enable_recovery()
        rng = DeterministicRandom(seed)
        producer = network.add_client("P", "B1")
        producer.advertise({"topic": "quotes"})
        consumers = [
            network.add_client("C{}".format(index), rng.choice(BORDERS)) for index in range(3)
        ]
        for consumer in consumers:
            bound = rng.randint(20, 80)
            consumer.subscribe({"topic": "quotes", "price": ("<", bound)}, durable=True)
        graph = MovementGraph.grid(3, 3)
        car = network.add_client("car", "B5")
        car.subscribe_location_dependent(
            {"topic": "quotes"}, graph, UncertaintyPlan.static(2), graph.locations()[0]
        )
        network.settle()
        for step in range(16):
            roll = rng.random()
            if roll < 0.6:
                price, location = rng.randint(0, 100), rng.choice(graph.locations())
                producer.publish({"topic": "quotes", "price": price, "location": location})
            elif roll < 0.75:
                rng.choice(consumers).detach()
            elif roll < 0.9:
                rng.choice(consumers).move_to(network.broker(rng.choice(BORDERS)))
            else:
                car.set_location(rng.choice(graph.locations()))
            if step == 5:
                network.snapshot_broker("B3")
            if step == 10:
                network.crash_broker("B3")
            if step == 12:
                network.restart_broker("B3")
            network.run_for(0.1)
        network.settle()
    finally:
        network.close()
    links = [(message.message_id, encode_frame(message)) for message in network.trace.sent]
    events = [event.message_id for event in sink.events()]
    return _trace_fingerprint(network.trace), links, events


@pytest.mark.parametrize("backend", BACKENDS)
def test_same_schedule_twice_gives_identical_ids_and_frames(backend):
    try:
        first = _run(backend, seed=7)
        second = _run(backend, seed=7)
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    fingerprint, links, events = first
    assert fingerprint["deliveries"] and fingerprint["drops"] and events
    assert second == first
    # Every message on a link was stamped: no id 0, and one message per id
    # (a notification forwarded hop by hop is one message).
    frames = {}
    for message_id, frame in links:
        frames.setdefault(message_id, set()).add(frame)
    assert 0 not in frames
    assert all(len(distinct) == 1 for distinct in frames.values())
