"""Integration tests of logical mobility (Section 5).

Checks the per-hop filter chain, the automatic adaptation to location
changes, the epoch-based QoS of Figure 4 (the run delivers what flooding
with client-side filtering would deliver), and the message-count contrast
with flooding.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.broker.base import BrokerConfig
from repro.broker.network import PubSubNetwork
from repro.broker.recovery import encode_table
from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import MYLOC
from repro.core.ploc import MovementGraph, PlocFunction
from repro.filters.filter import Filter
from repro.metrics.counters import MessageCounter
from repro.metrics.qos import (
    LocationTimeline,
    check_epoch_semantics,
    check_fifo,
    check_no_duplicates,
)
from repro.mobility.driver import ItineraryDriver
from repro.mobility.itinerary import LogicalItinerary
from repro.runtime.aio import AioRuntime
from repro.topology.builders import line_topology


def build_logical_network(plan=None, strategy="covering", latency=0.05, brokers=4):
    graph = MovementGraph.paper_example()
    network = PubSubNetwork(line_topology(brokers), strategy=strategy, latency=latency)
    producer = network.add_client("P", "B{}".format(brokers))
    producer.advertise({"service": "parking"})
    consumer = network.add_client("C", "B1")
    plan = plan or UncertaintyPlan.static(brokers - 1)
    subscription = consumer.subscribe_location_dependent(
        {"service": "parking", "location": MYLOC},
        movement_graph=graph,
        plan=plan,
        initial_location="a",
    )
    network.settle()
    return network, producer, consumer, subscription, graph


def publish_everywhere(producer, locations="abcd", rounds=1):
    for _ in range(rounds):
        for location in locations:
            producer.publish({"service": "parking", "location": location})


class TestFilterChain:
    def test_per_hop_states_follow_the_plan(self):
        network, _, _, subscription, graph = build_logical_network()
        ploc = PlocFunction(graph)
        for hop, broker_name in enumerate(["B1", "B2", "B3", "B4"]):
            state = network.broker(broker_name).logical.state_for("C", subscription)
            assert state is not None
            assert state.hop_index == hop
            assert state.location_set() == ploc("a", min(hop, 2))

    def test_set_inclusion_along_the_path(self):
        network, _, _, subscription, _ = build_logical_network()
        downstream = network.broker("B1").logical.state_for("C", subscription)
        for broker_name in ("B2", "B3", "B4"):
            upstream = network.broker(broker_name).logical.state_for("C", subscription)
            assert upstream.location_set() >= downstream.location_set()
            downstream = upstream

    def test_only_current_location_delivered(self):
        network, producer, consumer, _, _ = build_logical_network()
        publish_everywhere(producer)
        network.settle()
        assert [r.notification.get("location") for r in consumer.received] == ["a"]

    def test_location_change_redirects_delivery(self):
        network, producer, consumer, _, _ = build_logical_network()
        consumer.set_location("d")
        network.settle()
        publish_everywhere(producer)
        network.settle()
        assert [r.notification.get("location") for r in consumer.received] == ["d"]

    def test_all_hops_updated_after_change(self):
        network, _, consumer, subscription, graph = build_logical_network()
        consumer.set_location("b")
        network.settle()
        ploc = PlocFunction(graph)
        for hop, broker_name in enumerate(["B1", "B2", "B3", "B4"]):
            state = network.broker(broker_name).logical.state_for("C", subscription)
            assert state.current_location == "b"
            assert state.location_set() == ploc("b", min(hop, 2))

    def test_unsubscribe_tears_down_all_hops(self):
        network, producer, consumer, subscription, _ = build_logical_network()
        consumer.unsubscribe(subscription)
        network.settle()
        for broker_name in ("B1", "B2", "B3", "B4"):
            assert network.broker(broker_name).logical.state_for("C", subscription) is None
        publish_everywhere(producer)
        network.settle()
        assert consumer.received == []

    def test_vicinity_subscription(self):
        """'At most one block away from myloc' widens the delivered set."""
        graph = MovementGraph.paper_example()
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        producer = network.add_client("P", "B3")
        producer.advertise({"service": "parking"})
        consumer = network.add_client("C", "B1")
        consumer.subscribe_location_dependent(
            {"service": "parking", "location": MYLOC},
            movement_graph=graph,
            plan=UncertaintyPlan.static(2),
            initial_location="a",
            vicinity=1,
        )
        network.settle()
        publish_everywhere(producer)
        network.settle()
        delivered = sorted(r.notification.get("location") for r in consumer.received)
        assert delivered == ["a", "b", "c"]  # ploc(a, 1)

    def test_a_new_producer_at_the_border_does_not_bounce_the_subscription(self):
        """An advertisement reaching a hop from the direction its subscription
        came from must not send the subscription back there: the border would
        replace its client's state with one pointing away from the client."""
        network, producer, consumer, subscription, _ = build_logical_network(brokers=3)
        network.add_client("Q", "B1").advertise({"service": "parking"})
        network.settle()
        assert network.broker("B1").logical.state_for("C", subscription).destination == "C"
        assert network.broker("B2").logical.state_for("C", subscription).forwarded_to == ("B3",)
        publish_everywhere(producer)
        network.settle()
        assert [r.notification.get("location") for r in consumer.received] == ["a"]
        consumer.unsubscribe(subscription)
        network.settle()
        assert not any(broker.logical.states for broker in network.brokers.values())


class TestEpochSemantics:
    @pytest.mark.parametrize("plan_name", ["static", "trivial", "adaptive"])
    def test_slow_movement_matches_flooding_reference(self, plan_name):
        """For dwell times well above the network delays, the run delivers
        exactly what flooding with client-side filtering would (Figure 4)."""
        latency = 0.02
        hops = 3
        if plan_name == "static":
            plan = UncertaintyPlan.static(hops)
        elif plan_name == "trivial":
            plan = UncertaintyPlan.trivial(hops)
        else:
            plan = UncertaintyPlan.adaptive(dwell_time=2.0, hop_delays=[latency] * hops)
        network, producer, consumer, subscription, _ = build_logical_network(
            plan=plan, latency=latency
        )

        itinerary = LogicalItinerary.from_pairs([(0.0, "a"), (2.0, "b"), (4.0, "d"), (6.0, "c")])
        driver = ItineraryDriver(network, consumer)
        driver.schedule_logical(itinerary)

        # Publications spread over the run, at every location.
        start = network.now
        for step in range(40):
            network.clock.schedule_at(
                start + 0.2 * step,
                producer.publish,
                {"service": "parking", "location": "abcd"[step % 4]},
            )
        network.run_until(start + 10.0)
        network.settle()

        timeline = LocationTimeline(itinerary.timeline_pairs())
        report = check_epoch_semantics(
            network.trace,
            "C",
            base_filter=Filter({"service": "parking"}),
            location_attribute="location",
            timeline=timeline,
            myloc=lambda location: {location},
            delivery_delay=3 * latency,
        )
        # Publications whose flooding arrival falls exactly on an epoch
        # border are ambiguous; everything else must match exactly.
        border_times = {time for time, _ in itinerary.timeline_pairs()}
        tolerated = set()
        for identity in report.missing | report.spurious:
            publish = next(p for p in network.trace.publish_records if p.identity == identity)
            arrival = publish.time + 3 * latency
            if any(abs(arrival - border) <= 3 * latency for border in border_times):
                tolerated.add(identity)
        assert report.missing <= tolerated, report.missing - tolerated
        assert report.spurious <= tolerated, report.spurious - tolerated
        assert check_no_duplicates(network.trace, "C").clean
        assert check_fifo(network.trace, "C").ordered


class TestCostContrast:
    def test_new_algorithm_cheaper_than_flooding(self):
        """The ploc scheme forwards far fewer notifications than flooding
        while delivering the same current-location notifications."""
        results = {}
        for strategy in ("covering", "flooding"):
            graph = MovementGraph.paper_example()
            network = PubSubNetwork(line_topology(5), strategy=strategy, latency=0.01)
            producer = network.add_client("P", "B5")
            producer.advertise({"service": "parking"})
            consumer = network.add_client("C", "B1")
            consumer.subscribe_location_dependent(
                {"service": "parking", "location": MYLOC},
                movement_graph=graph,
                plan=UncertaintyPlan.trivial(4),
                initial_location="a",
            )
            network.settle()
            for _ in range(25):
                publish_everywhere(producer)
            network.settle()
            counter = MessageCounter(network.trace)
            results[strategy] = (
                counter.breakdown().notifications,
                [r.notification.get("location") for r in consumer.received],
            )
        covering_messages, covering_delivered = results["covering"]
        flooding_messages, flooding_delivered = results["flooding"]
        assert covering_delivered == flooding_delivered
        assert covering_messages < flooding_messages

    def test_location_updates_generate_admin_traffic_only_on_subscription_path(self):
        network, _, consumer, _, _ = build_logical_network(latency=0.01)
        counter = MessageCounter(network.trace)
        before = counter.breakdown().mobility
        consumer.set_location("b")
        network.settle()
        after = counter.breakdown().mobility
        # One LocationUpdate per link of the B1..B4 path (3 links).
        assert after - before == 3

    def test_unchanged_update_suppression_ablation(self):
        """With the optimisation on, saturated hops stop the propagation."""
        config = BrokerConfig(propagate_unchanged_location_updates=False)
        graph = MovementGraph.paper_example()
        network = PubSubNetwork(line_topology(4), strategy="covering", latency=0.01, config=config)
        producer = network.add_client("P", "B4")
        producer.advertise({"service": "parking"})
        consumer = network.add_client("C", "B1")
        consumer.subscribe_location_dependent(
            {"service": "parking", "location": MYLOC},
            movement_graph=graph,
            plan=UncertaintyPlan.static(3),
            initial_location="a",
        )
        network.settle()
        counter = MessageCounter(network.trace)
        before = counter.breakdown().mobility
        consumer.set_location("b")
        network.settle()
        after = counter.breakdown().mobility
        # ploc(a,2) == ploc(b,2) == everything, so the update stops before
        # the last hop: fewer than 3 link messages.
        assert 0 < after - before < 3


class TestCrashRecovery:
    @pytest.mark.parametrize("snapshot_first", [True, False])
    def test_restarted_broker_owns_its_logical_row_again(self, snapshot_first):
        """A path broker comes back from its snapshot (or from the journal
        alone) with the state, the state's routing row and the forwarding
        order it had, and keeps following the client."""
        networks = []
        for crash in (False, True):
            graph = MovementGraph.paper_example()
            network = PubSubNetwork(line_topology(4), strategy="covering", latency=0.05)
            network.enable_recovery("B2")
            producer = network.add_client("P", "B4")
            producer.advertise({"service": "parking"})
            consumer = network.add_client("C", "B1")
            subscription = consumer.subscribe_location_dependent(
                {"service": "parking", "location": MYLOC},
                movement_graph=graph,
                plan=UncertaintyPlan.static(3),
                initial_location="a",
            )
            network.settle()
            if crash:
                if snapshot_first:
                    network.snapshot_broker("B2")
                network.crash_broker("B2")
                network.restart_broker("B2")
                state = network.broker("B2").logical.state_for("C", subscription)
                assert (state.destination, state.forwarded_to) == ("B1", ("B3",))
                row = network.broker("B2").subscription_table.find_entry(state.stored_filter, "B1")
                assert state.owns(row) and row.filter is state.current_filter()
            consumer.set_location("d")
            network.settle()
            publish_everywhere(producer)
            network.settle()
            assert [r.notification.get("location") for r in consumer.received] == ["d"]
            networks.append(network)
        oracle, crashed = (network.broker("B2") for network in networks)
        assert encode_table(crashed.subscription_table) == encode_table(oracle.subscription_table)
        forwarded = [
            {neighbour: state.forwarded for neighbour, state in broker.forwarding.states.items()}
            for broker in (crashed, oracle)
        ]
        assert forwarded[0] == forwarded[1] == {"B1": {}, "B3": {}}


class TestSharedMovementGraph:
    def test_decoded_graphs_are_interned_per_network(self):
        """Over real frames every LocationDependentSubscribe decodes into a
        graph of its own; every broker points its states at the network's
        live one — here the clients' own — so one street map has one ploc
        memo per network and the memo grows with the distinct (location,
        level) pairs, not with the subscriptions or the hops."""
        network = PubSubNetwork(line_topology(4), strategy="covering", runtime=AioRuntime())
        try:
            network.add_client("P", "B4").advertise({"service": "traffic"})
            network.settle()
            grid = MovementGraph.grid(8, 8)
            blocks = grid.locations()[:20]
            for index in range(40):
                car = network.add_client("car{}".format(index), "B1")
                car.subscribe_location_dependent(
                    {"service": "traffic", "location": MYLOC},
                    movement_graph=grid,
                    plan=UncertaintyPlan.static(3),
                    initial_location=blocks[index % len(blocks)],
                )
            network.settle()
            for name in ("B1", "B2", "B3", "B4"):
                states = list(network.broker(name).logical.states.values())
                assert len(states) == 40
                assert all(state.movement_graph is grid for state in states)
            # One memo entry per frontier expansion, plus each block itself:
            # levels 0..3 of the static plan over the four hops, per block.
            assert len(grid._reachable) <= len(blocks) * 4
        finally:
            network.close()


_HUB_SCENARIO = """
from repro.broker.network import PubSubNetwork
from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import MYLOC
from repro.core.ploc import MovementGraph
from repro.topology.builders import star_topology

network = PubSubNetwork(star_topology(6), strategy="covering", latency=0.01)
for arm in range(1, 7):
    network.add_client("P{}".format(arm), "B{}".format(arm)).advertise({"service": "parking"})
network.settle()
car = network.add_client("C", "B0")
subscription = car.subscribe_location_dependent(
    {"service": "parking", "location": MYLOC},
    movement_graph=MovementGraph.paper_example(),
    plan=UncertaintyPlan.static(1),
    initial_location="a",
)
network.settle()
car.set_location("b")
network.settle()
car.unsubscribe(subscription)
network.settle()
for kind in ("LocationUpdate", "LocationDependentUnsubscribe"):
    print(kind, ",".join(r.target for r in network.trace.link_records if r.message_type == kind))
"""


class TestEmissionOrder:
    def test_send_order_does_not_depend_on_the_hash_seed(self):
        """A hub forwarding to six advertised arms: the LocationUpdate and
        LocationDependentUnsubscribe sends follow the forwarding order (the
        sorted neighbours), whatever order a set of names would iterate in."""
        source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = []
        for hash_seed in ("0", "2"):
            environment = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source_root)
            completed = subprocess.run(
                [sys.executable, "-c", _HUB_SCENARIO],
                env=environment,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(completed.stdout)
        arms = "B1,B2,B3,B4,B5,B6"
        assert outputs[0] == "LocationUpdate {0}\nLocationDependentUnsubscribe {0}\n".format(arms)
        assert outputs[1] == outputs[0]
