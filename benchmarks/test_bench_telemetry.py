"""Telemetry overhead benchmark: instrumented runs must stay faithful.

The observability subsystem (``repro.telemetry``, see
``docs/observability.md``) promises two things this suite turns into a
regression gate:

* **Zero cost when off** — a network built without a
  ``TelemetryConfig`` performs exactly the work it did before the
  subsystem existed.  The telemetry-off counters recorded here are
  checked *byte-exact* against the committed ``BENCH_telemetry.json``
  (``check_bench.py --exact``), so an accidental hot-path perturbation
  (a stray emit, a probe wired unconditionally) fails CI instead of
  drifting the baselines.
* **Faithful when on** — enabling telemetry (ring-buffer sink) must not
  change a single data-plane decision: same deliveries, same admin
  traffic, same constraint-evaluation counts.  Only the out-of-band
  event stream appears, and its wall-clock overhead stays bounded.

Wall-clock numbers are recorded but, as everywhere else, never gated;
the deterministic event counts are gated exactly as workload fields.
"""

import gc
import time

from repro.broker.network import PubSubNetwork
from repro.metrics.counters import MessageCounter
from repro.sim.rng import DeterministicRandom
from repro.telemetry import RingBufferSink, TelemetryConfig
from repro.telemetry.events import MetricSnapshotEvent, SpanEvent
from repro.topology.builders import balanced_tree_topology

LOCATIONS = ["loc-{:02d}".format(index) for index in range(24)]

SUBSCRIBERS_PER_LEAF = 25  # 3 populated leaves -> 75 overlapping subscriptions
PUBLISHES = 120


def _run_publish_workload(telemetry: bool):
    """The dispatch suite's workload shape, scaled down, with/without a sink."""
    sink = RingBufferSink()
    config = TelemetryConfig(sink_factory=lambda: sink) if telemetry else None
    topology = balanced_tree_topology(depth=3, fanout=2)
    network = PubSubNetwork(
        topology, strategy="covering", latency=0.005, telemetry=config
    )
    leaves = topology.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    network.settle()

    rng = DeterministicRandom(17)
    clients = []
    for leaf_index, leaf in enumerate(leaves[1:4]):
        for client_index in range(SUBSCRIBERS_PER_LEAF):
            client = network.add_client("c-{}-{}".format(leaf_index, client_index), leaf)
            span = rng.randint(1, 5)
            start = rng.randint(0, len(LOCATIONS) - span)
            template = {
                "service": "parking",
                "location": ("in", LOCATIONS[start : start + span]),
            }
            roll = rng.random()
            if roll < 0.2:
                template["cost"] = ("<", rng.randint(2, 8))
            elif roll < 0.3:
                # Interval constraints leave residual evaluations behind
                # the counting index, keeping the gated constraint_evals
                # counter meaningfully non-zero.
                low = rng.randint(0, 4)
                template["cost"] = ("between", low, low + rng.randint(1, 4))
            client.subscribe(template)
            clients.append(client)
    network.settle()

    # Start from a collected heap: otherwise a full collection owed by the
    # set-up (or by the previous run in this process) lands in one side's
    # timed window or the other's depending only on how many objects the
    # set-up happened to allocate.
    gc.collect()
    started = time.perf_counter()
    for index in range(PUBLISHES):
        producer.publish(
            {
                "service": "parking",
                "location": LOCATIONS[index % len(LOCATIONS)],
                "cost": index % 10,
                "index": index,
            }
        )
    network.settle()
    publish_seconds = time.perf_counter() - started

    stats = network.data_plane_breakdown()
    counter = MessageCounter(network.trace)
    events = list(sink.events())
    network.close()
    return {
        "publish_seconds": publish_seconds,
        "constraint_evals": stats["constraint_evals"],
        "dispatch_matches": stats["dispatch_matches"],
        "admin_messages": counter.breakdown().admin,
        "delivered": sum(len(client.received) for client in clients),
        "received": {c.client_id: c.received_identities() for c in clients},
        "table_sizes": network.routing_table_sizes(),
        "events": events,
    }


def test_telemetry_overhead(benchmark):
    """Telemetry-on counters equal telemetry-off byte for byte; the event
    stream is deterministic; wall-clock overhead stays bounded."""
    off = benchmark.pedantic(_run_publish_workload, args=(False,), iterations=1, rounds=1)
    on = _run_publish_workload(True)

    # Faithfulness: not a single data-plane decision may differ.
    for key in (
        "constraint_evals",
        "dispatch_matches",
        "admin_messages",
        "delivered",
        "received",
        "table_sizes",
    ):
        assert on[key] == off[key], "telemetry perturbed {!r}".format(key)
    assert off["events"] == []

    span_events = sum(1 for e in on["events"] if isinstance(e, SpanEvent))
    snapshot_events = sum(1 for e in on["events"] if isinstance(e, MetricSnapshotEvent))
    assert span_events > 0 and snapshot_events > 0

    # Bounded overhead: the ring-buffer sink costs object construction
    # and an append per hop.  The bound is deliberately generous — wall
    # clock is machine-bound — but a runaway (emitting per predicate
    # evaluation, say) still trips it.
    overhead = on["publish_seconds"] / max(off["publish_seconds"], 1e-9)
    assert overhead < 10.0, "telemetry overhead ratio {:.1f}x".format(overhead)

    benchmark.extra_info.update(
        {
            "subscriptions": 3 * SUBSCRIBERS_PER_LEAF,
            "publishes": PUBLISHES,
            "delivered": off["delivered"],
            "constraint_evals": off["constraint_evals"],
            "constraint_evals_on": on["constraint_evals"],
            "dispatch_matches": off["dispatch_matches"],
            "admin_messages": off["admin_messages"],
            "telemetry_events": len(on["events"]),
            "span_events": span_events,
            "snapshot_events": snapshot_events,
            "publish_seconds_off": round(off["publish_seconds"], 4),
            "publish_seconds_on": round(on["publish_seconds"], 4),
            "telemetry_overhead_x": round(overhead, 2),
        }
    )
