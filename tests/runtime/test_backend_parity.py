"""Backend parity: the simulator and the asyncio backend must agree.

The same broker code runs under both runtimes; the wire codec and the
framed streams in between must be behaviour-preserving.  Two layers of
assertion:

* **Scenario parity** (wall-clock asyncio) — each hand-written scenario
  runs once on :class:`~repro.runtime.sim.SimRuntime` and once on a
  wall-clock :class:`~repro.runtime.aio.AioRuntime` and must produce
  identical *time-free* delivery traces (one clock is simulated, the
  other real, so timestamps are excluded).
* **Experiment parity** (virtual-time asyncio) — the FULL experiment
  suite (fig 2/3/5/9, tables 1–4, the failure-schedule family) runs on
  the simulator and on the virtual-time asyncio backend (memory and TCP
  transports) and must agree on everything **including timestamps**:
  delivery records, link traversals (admin messages included), drop
  records, publish records, every rendered metric and every broker's
  counters.  This is the CI backend-parity gate.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.broker.network import PubSubNetwork
from repro.experiments import backends
from repro.experiments.backends import Backend
from repro.experiments.runner import EXPERIMENTS
from repro.runtime.aio import AioRuntime
from repro.runtime.factory import make_runtime
from repro.topology.builders import line_topology
from tests.oracles.trace import message_keeping_runtime


def _delivery_trace(network):
    """Time-free view of the delivery trace: per-client, in order."""
    per_client = {}
    for record in network.trace.delivery_records:
        per_client.setdefault(record.client_id, []).append(
            (
                record.subscription_id,
                record.publisher,
                record.publisher_seq,
                record.sequence,
                record.attributes,
            )
        )
    return per_client


def _received(clients):
    return {
        client.client_id: [
            (record.subscription_id, record.sequence, record.identity)
            for record in client.received
        ]
        for client in clients
    }


def _run_on_backends(scenario, topology_size, transport="memory"):
    """Run *scenario* on the simulator and on asyncio; return both results."""
    sim_network = PubSubNetwork(line_topology(topology_size), strategy="covering", latency=0.05)
    sim_result = scenario(sim_network)

    aio_network = PubSubNetwork(
        line_topology(topology_size),
        strategy="covering",
        runtime=AioRuntime(transport=transport),
    )
    try:
        aio_result = scenario(aio_network)
    finally:
        aio_network.close()
    return sim_network, sim_result, aio_network, aio_result


# ---------------------------------------------------------------------------
# Scenario 1: the quickstart (pub/sub + disconnect buffering + relocation)
# ---------------------------------------------------------------------------


def quickstart_scenario(network):
    producer = network.add_client("ticker", "B4")
    producer.advertise({"type": "quote"})
    consumer = network.add_client("dashboard", "B1")
    consumer.subscribe({"type": "quote", "symbol": "REBECA"}, subscription_id="q")
    network.settle()

    for price in (101.5, 102.0, 99.75):
        producer.publish({"type": "quote", "symbol": "REBECA", "price": price})
    producer.publish({"type": "quote", "symbol": "OTHER", "price": 5.0})
    network.settle()

    consumer.detach()
    for price in (98.0, 97.5):
        producer.publish({"type": "quote", "symbol": "REBECA", "price": price})
    network.settle()

    consumer.move_to(network.broker("B3"))
    producer.publish({"type": "quote", "symbol": "REBECA", "price": 103.25})
    network.settle()
    return [consumer, producer]


def test_quickstart_parity_memory_transport():
    sim_network, sim_clients, aio_network, aio_clients = _run_on_backends(
        quickstart_scenario, topology_size=4
    )
    sim_trace = _delivery_trace(sim_network)
    aio_trace = _delivery_trace(aio_network)
    assert aio_trace == sim_trace
    assert _received(aio_clients) == _received(sim_clients)
    # The consumer saw every matching quote exactly once, in order.
    consumer_trace = sim_trace["dashboard"]
    assert [item[3] for item in consumer_trace] == list(range(1, 7))
    assert len(aio_network.trace.link_records) > 0


# ---------------------------------------------------------------------------
# Scenario 2: physical mobility — multi-hop roaming with replay at each hop
# ---------------------------------------------------------------------------


def relocation_scenario(network):
    """A consumer roams B1 -> B3 -> B5 while a producer keeps publishing.

    Each hop triggers the full Section 4 relocation protocol: junction
    discovery, fetch request along the old path, counterpart replay and
    ordered flushing of the new-path buffer.
    """
    producer = network.add_client("press", "B5")
    producer.advertise({"topic": "news"})
    roamer = network.add_client("reader", "B1")
    roamer.subscribe({"topic": "news"}, subscription_id="n")
    bystander = network.add_client("archive", "B2")
    bystander.subscribe({"topic": "news", "priority": ("<", 2)}, subscription_id="a")
    network.settle()

    for index in range(3):
        producer.publish({"topic": "news", "priority": index % 3, "issue": index})
    network.settle()

    # Hop 1: disconnect, miss some notifications, reappear at B3.
    roamer.detach()
    for index in range(3, 6):
        producer.publish({"topic": "news", "priority": index % 3, "issue": index})
    network.settle()
    roamer.move_to(network.broker("B3"))
    network.settle()

    for index in range(6, 8):
        producer.publish({"topic": "news", "priority": index % 3, "issue": index})
    network.settle()

    # Hop 2: roam while attached (no disconnected gap) to B5.
    roamer.move_to(network.broker("B5"))
    network.settle()
    for index in range(8, 10):
        producer.publish({"topic": "news", "priority": index % 3, "issue": index})
    network.settle()
    return [roamer, bystander, producer]


def test_relocation_parity_memory_transport():
    sim_network, sim_clients, aio_network, aio_clients = _run_on_backends(
        relocation_scenario, topology_size=5
    )
    sim_trace = _delivery_trace(sim_network)
    aio_trace = _delivery_trace(aio_network)
    assert aio_trace == sim_trace
    assert _received(aio_clients) == _received(sim_clients)
    # Relocation QoS held on both backends: the roamer received all ten
    # issues exactly once, in publisher order.
    roamer_trace = sim_trace["reader"]
    assert [dict(item[4])["issue"] for item in roamer_trace] == list(range(10))
    assert [item[3] for item in roamer_trace] == list(range(1, 11))


# ---------------------------------------------------------------------------
# TCP transport (real loopback sockets)
# ---------------------------------------------------------------------------


def test_quickstart_parity_tcp_transport():
    try:
        sim_network, sim_clients, aio_network, aio_clients = _run_on_backends(
            quickstart_scenario, topology_size=4, transport="tcp"
        )
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    assert _delivery_trace(aio_network) == _delivery_trace(sim_network)
    assert _received(aio_clients) == _received(sim_clients)


# ---------------------------------------------------------------------------
# Full-suite experiment parity (virtual-time asyncio vs. the simulator)
# ---------------------------------------------------------------------------

#: The asyncio variants the experiment-parity gate checks against "sim".
AIO_BACKENDS = ("aio-memory", "aio-tcp")


@contextmanager
def recorded_runtimes(make=make_runtime):
    """Every runtime ``build_network`` makes inside the block, in order.

    Experiments build their networks internally; swapping the runtime
    constructor ``build_network`` calls (for *make*, which defaults to
    :func:`make_runtime`) is how the parity tests get hold of each
    network's trace recorder after the experiment returns (closing a
    runtime only stops its transport, the trace stays readable).
    """
    runtimes = []

    def recording(name, latency=None):
        runtime = make(name, latency)
        runtimes.append(runtime)
        return runtime

    with mock.patch.object(backends, "make_runtime", recording):
        yield runtimes


@contextmanager
def recorded_networks():
    """Every network ``build_network`` builds inside the block, in order."""
    networks = []

    def recording(*args, **kwargs):
        network = PubSubNetwork(*args, **kwargs)
        networks.append(network)
        return network

    with mock.patch.object(backends, "PubSubNetwork", recording):
        yield networks


def run_recorded(name, backend):
    """Run experiment *name* (quick) on *backend*: its result and one fingerprint per network."""
    with recorded_runtimes(message_keeping_runtime), recorded_networks() as networks:
        result = EXPERIMENTS[name].run(Backend(backend), quick=True)
    return result, [_fingerprint(network) for network in networks]


def _fingerprint(network):
    """The network's trace fingerprint plus every broker's counters."""
    counters = {name: dict(broker.counters) for name, broker in sorted(network.brokers.items())}
    return {**_trace_fingerprint(network.trace), "counters": counters}


def _trace_fingerprint(trace):
    """Everything a trace records in record order, timestamps and message ids included.

    *trace* is a ``MessageKeepingRecorder``: a link row names only the
    message's class, the recorder keeps the message for its id and
    description.  Every backend that models time runs the same ``Link``,
    so even the append order of link and drop records is the same.
    """
    deliveries = [
        (
            record.time,
            record.client_id,
            record.subscription_id,
            record.publisher,
            record.publisher_seq,
            record.sequence,
            record.attributes,
        )
        for record in trace.delivery_records
    ]
    links = [
        (
            record.time,
            record.source,
            record.target,
            record.kind.name,
            record.message_type,
            message.message_id,
            message.describe(),
        )
        for record, message in trace.sent_records()
    ]
    drops = [
        (
            record.time,
            record.source,
            record.target,
            record.kind.name,
            record.message_type,
            record.message_id,
            record.reason,
        )
        for record in trace.drop_records
    ]
    publishes = [
        (record.time, record.publisher, record.publisher_seq, record.attributes)
        for record in trace.publish_records
    ]
    return {"deliveries": deliveries, "links": links, "drops": drops, "publishes": publishes}


@pytest.fixture(scope="module")
def recorded():
    """Lazily computed ``(report text, fingerprints)`` per experiment and
    backend, shared per module."""
    cache = {}

    def get(name, backend):
        if (name, backend) not in cache:
            try:
                result, fingerprints = run_recorded(name, backend)
            except OSError as error:  # pragma: no cover - sandboxed environments
                pytest.skip("loopback sockets unavailable: {}".format(error))
            cache[name, backend] = (result.format_text(), fingerprints)
        return cache[name, backend]

    return get


@pytest.mark.parametrize("backend", AIO_BACKENDS)
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_parity(name, backend, recorded):
    """The full experiment agrees with the simulator, timestamps included."""
    sim_text, sim_fingerprints = recorded(name, "sim")
    aio_text, aio_fingerprints = recorded(name, backend)
    # Every rendered number (message counts, blackout durations,
    # relocation latencies, recovery reports) is byte-identical.
    assert aio_text == sim_text
    # The experiment built the same number of networks, and each one
    # produced the identical trace: deliveries in identical order with
    # identical virtual timestamps, the same link traversals (admin
    # messages included), the same drops and publishes.
    assert len(aio_fingerprints) == len(sim_fingerprints)
    for aio_fp, sim_fp in zip(aio_fingerprints, sim_fingerprints):
        assert aio_fp["deliveries"] == sim_fp["deliveries"]
        assert aio_fp["links"] == sim_fp["links"]
        assert aio_fp["drops"] == sim_fp["drops"]
        assert aio_fp["publishes"] == sim_fp["publishes"]


@pytest.mark.parametrize("backend", AIO_BACKENDS)
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_broker_counters_agree(name, backend, recorded):
    """Every broker of every network the experiment builds ends with the
    simulator's counters: a message is dropped, counted and traced by the
    same component on every backend."""
    _, sim_fingerprints = recorded(name, "sim")
    _, aio_fingerprints = recorded(name, backend)
    sim_counters = [fingerprint["counters"] for fingerprint in sim_fingerprints]
    assert [fingerprint["counters"] for fingerprint in aio_fingerprints] == sim_counters
