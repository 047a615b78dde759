"""Causal notification tracing: span trees, determinism, zero-cost-off."""

from repro.broker.network import PubSubNetwork
from repro.telemetry import RingBufferSink, TelemetryConfig
from repro.telemetry.events import SpanEvent
from repro.telemetry.tracing import build_span_tree, render_span_tree, trace_ids
from repro.topology.builders import line_topology
from tests.oracles.trace import message_keeping_runtime


def _traced_network(runtime=None, latency=0.05):
    sink = RingBufferSink()
    config = TelemetryConfig(sink_factory=lambda: sink)
    if runtime is None:
        network = PubSubNetwork(
            line_topology(4), strategy="covering", latency=latency, telemetry=config
        )
    else:
        network = PubSubNetwork(
            line_topology(4), strategy="covering", runtime=runtime, telemetry=config
        )
    return network, sink


def _publish_once(network):
    producer = network.add_client("P", "B1")
    producer.advertise({"topic": "news"})
    far = network.add_client("C", "B4")
    far.subscribe({"topic": "news"})
    near = network.add_client("D", "B2")
    near.subscribe({"topic": "news"})
    network.settle()
    producer.publish({"topic": "news", "seq": 1})
    network.settle()
    return producer, far, near


def _spans(sink):
    return [event for event in sink.events() if isinstance(event, SpanEvent)]


def test_span_tree_has_per_hop_timing():
    network, sink = _traced_network()
    _publish_once(network)
    spans = _spans(sink)
    assert trace_ids(spans) == ["P#1"]
    roots = build_span_tree(spans, "P#1")
    assert len(roots) == 1
    root = roots[0]
    # Root is the publisher's border broker, fed by the local client.
    assert root.span.broker == "B1"
    assert root.span.peer == "P"
    assert root.span.attrs["local_origin"] is True
    # The line topology gives a single forwarding chain B1->B2->B3->B4.
    assert [child.span.broker for child in root.children] == ["B2"]
    b2 = root.children[0]
    assert [d.peer for d in b2.deliveries] == ["D"]
    # Per-hop wait is the link latency under the virtual clock.
    assert abs((b2.span.time - b2.parent_forward.time) - 0.05) < 1e-9

    rendered = render_span_tree(spans, "P#1")
    assert "trace P#1" in rendered
    assert "hop from B1, wait 0.050" in rendered
    assert "-> deliver C" in rendered
    assert "-> deliver D" in rendered


def test_span_trees_identical_across_backends():
    """Virtual time makes the span tree byte-identical on the simulator
    and the asyncio backends."""
    from repro.runtime.factory import make_runtime

    renders = {}
    for backend in ("sim", "aio-memory"):
        network, sink = _traced_network(runtime=make_runtime(backend, latency=0.05))
        _publish_once(network)
        renders[backend] = render_span_tree(_spans(sink), "P#1")
        network.close()
    assert renders["sim"] == renders["aio-memory"]


def test_telemetry_off_runs_are_byte_identical():
    """Enabling telemetry must not change the run itself: same message
    ids, same trace records, same deliveries — only extra events appear
    out-of-band."""

    def run(telemetry):
        config = TelemetryConfig(sink_factory=RingBufferSink) if telemetry else None
        runtime = message_keeping_runtime(latency=0.05)
        network = PubSubNetwork(
            line_topology(4), strategy="covering", runtime=runtime, telemetry=config
        )
        _publish_once(network)
        links = [
            (r.time, r.source, r.target, r.message_type, message.message_id)
            for r, message in network.trace.sent_records()
        ]
        deliveries = [
            (r.time, r.client_id, r.publisher, r.publisher_seq, r.sequence)
            for r in network.trace.delivery_records
        ]
        return links, deliveries

    assert run(telemetry=False) == run(telemetry=True)


def test_zero_cost_when_disabled():
    """A dark network attaches no sink, no emitters and no depth probes."""
    network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.05)
    assert network.telemetry_sink is None
    for broker in network.brokers.values():
        assert broker._telemetry is None
    for link in network.links.values():
        assert link.depth_probe is None


def test_queue_depth_probes_record_when_enabled():
    network, _ = _traced_network()
    _publish_once(network)
    gauges = {}
    for broker in network.brokers.values():
        gauges.update(broker.metrics.gauge_snapshot())
    assert any(name.startswith("queue_depth:") for name in gauges)
    histograms = network.brokers["B1"].metrics.histogram_snapshot()
    assert histograms["link_queue_depth"]["count"] > 0
