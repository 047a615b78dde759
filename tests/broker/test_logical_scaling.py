"""Tripwires: what logical mobility costs next to a plain population, and per state.

Section 5 keeps one state per (location-dependent subscription, hop).  A
state writes exactly one routing row, which the forwarding states exclude
row by row, so registering, moving and withdrawing such a subscription
touches no neighbour's desired set: no table-scan rebuild
(``NeighbourForwardingState.rebuild_from_rows``), no scan for the token's
rows (``RoutingTable.entries_for_subject`` / ``remove_subject``), and a
cost that does not follow the number of plain subscriptions around it.
While every registration and withdrawal invalidated every neighbour's
state, the interleaved phase below rebuilt 600–800 states from the table
and took 1.4 s next to 200 plain subscriptions, 9.1 s next to 800.

A state itself is a slot-backed record over the network's one table of
live filters: on the car population below it keeps about 0.96 KB of live
``repro`` allocations (CPython 3.11; messages held by the trace included).
With one table of instantiated ``ploc`` filters per broker, and a
location-dependent filter per car, it kept about 1.27 KB; the dict-backed
state with its own ``PlocFunction``, forwarded-to set and second token
string kept about 1.8 KB.  The bound sits between the first two.
"""

import gc
import time
import tracemalloc

from repro.broker.network import PubSubNetwork
from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import MYLOC
from repro.core.ploc import MovementGraph
from repro.filters.filter import Filter
from repro.topology.builders import balanced_tree_topology

from tests.broker.test_admission_scaling import distinct_population

ROUNDS = 50
STREETS = MovementGraph.line(["loc-{:04d}".format(index) for index in range(40)])


def _interleaved_phase(network):
    """ROUNDS × (a car subscribes, moves and leaves; a plain subscriber joins); seconds."""
    leaves = network.graph.leaves()
    plan = UncertaintyPlan.static(6)
    started = time.perf_counter()
    for index in range(ROUNDS):
        leaf = leaves[1 + index % (len(leaves) - 1)]
        car = network.add_client("car{}".format(index), leaf)
        subscription = car.subscribe_location_dependent(
            {"service": "parking", "location": MYLOC},
            movement_graph=STREETS,
            plan=plan,
            initial_location=STREETS.locations()[index % 30],
        )
        network.settle()
        network.add_client("late{}".format(index), leaf).subscribe(
            {"service": "parking", "location": ("in", ("late-{}".format(index),))}
        )
        network.settle()
        car.set_location(STREETS.locations()[index % 30 + 1])
        network.settle()
        car.unsubscribe(subscription)
        network.settle()
    return time.perf_counter() - started


def _settled_then_interleaved(plain, calls):
    network = distinct_population(plain)
    for name in calls:
        calls[name] = 0
    seconds = _interleaved_phase(network)
    assert not any(broker._logical_states for broker in network.brokers.values())
    return seconds


def test_logical_churn_does_not_follow_the_plain_population(table_scan_calls):
    none = dict.fromkeys(table_scan_calls, 0)
    small = min(_settled_then_interleaved(200, table_scan_calls) for _ in range(2))
    assert table_scan_calls == none
    large = min(_settled_then_interleaved(800, table_scan_calls) for _ in range(2))
    assert table_scan_calls == none
    # 4× the plain subscriptions around it: the invalidating broker read 6.5×.
    assert large <= 2 * small, (small, large)


# ---------------------------------------------------------------------------
# Memory per (subscription, hop) state
# ---------------------------------------------------------------------------

CARS = 600
BYTES_PER_STATE = 1150


def car_population(cars):
    """A settled depth-3 tree: two sensors, *cars* location-dependent
    subscriptions spread over an 8×8 street grid (the shape of the
    ``roam_logical`` benchmark workload, which has 1,200 cars on 16×16)."""
    topology = balanced_tree_topology(depth=3, fanout=2)
    network = PubSubNetwork(topology, strategy="covering", latency=0.005)
    leaves = topology.leaves()
    for index, leaf in enumerate(leaves[-2:]):
        network.add_client("sensor{}".format(index), leaf).advertise({"service": "traffic"})
    network.settle()
    grid = MovementGraph.grid(8, 8)
    blocks = grid.locations()
    plan = UncertaintyPlan.adaptive(dwell_time=1.0, hop_delays=[0.005] * 6)
    subscriptions = []
    for index in range(cars):
        car = network.add_client("car{}".format(index), leaves[index % (len(leaves) - 2)])
        subscriptions.append(
            (
                car,
                car.subscribe_location_dependent(
                    {"service": "traffic", "location": MYLOC},
                    movement_graph=grid,
                    plan=plan,
                    initial_location=blocks[(index * 37) % len(blocks)],
                ),
            )
        )
    network.settle()
    return network, subscriptions


def test_a_logical_state_stays_small():
    tracemalloc.start()
    try:
        network, _ = car_population(CARS)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    states = sum(len(broker._logical_states) for broker in network.brokers.values())
    assert states > 6 * CARS
    ours = snapshot.filter_traces([tracemalloc.Filter(True, "*/src/repro/*")])
    live = sum(statistic.size for statistic in ours.statistics("filename"))
    assert 0 < live <= BYTES_PER_STATE * states, live / states


def test_the_filter_table_empties_with_the_last_subscription():
    network, subscriptions = car_population(60)
    live = network.filter_caches.live
    assert len(live) > 60
    for car, subscription in subscriptions:
        car.unsubscribe(subscription)
    network.settle()
    # The trace keeps every LocationDependentSubscribe, with its filter and graph.
    network.trace.clear()
    gc.collect()
    # Left: the sensors' advertisement, which they still hold.
    assert list(live) == [(Filter, Filter({"service": "traffic"}).key())]
