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
and took 1.4 s next to 200 plain subscriptions, 9.1 s next to 800.  The
tripwire counts that work instead of timing it: covering questions,
forwarding placements and dispatch-plan rebuilds are the same next to
800 plain subscriptions as next to 200, and within committed bounds.

A state itself is a slot-backed record over the network's one table of
live filters: on the car population below it keeps about 0.96 KB of live
``repro`` allocations (CPython 3.11; messages held by the trace included).
With one table of instantiated ``ploc`` filters per broker, and a
location-dependent filter per car, it kept about 1.27 KB; the dict-backed
state with its own ``PlocFunction``, forwarded-to set and second token
string kept about 1.8 KB.  The bound sits between the first two.
"""

import gc
import tracemalloc

from repro.broker.forwarding import NeighbourForwardingState
from repro.broker.network import PubSubNetwork
from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import MYLOC
from repro.core.ploc import MovementGraph
from repro.dispatch.plan import DispatchPlan
from repro.filters.filter import Filter
from repro.topology.builders import balanced_tree_topology

from tests.broker.test_admission_scaling import distinct_population

ROUNDS = 50
STREETS = MovementGraph.line(["loc-{:04d}".format(index) for index in range(40)])


def _interleaved_phase(network):
    """ROUNDS × (a car subscribes, moves and leaves; a plain subscriber joins)."""
    leaves = network.graph.leaves()
    plan = UncertaintyPlan.static(6)
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


#: The interleaved phase's work, next to 200 and to 800 plain subscriptions
#: alike (measured: 154 covering questions, 240 placements, no rebuild).
#: Invalidating every neighbour's state on a registration or withdrawal
#: makes the placements follow the plain population; rebuilding the
#: dispatch plan per registration makes rebuilds.
WORK_BOUNDS = {"covering questions": 170, "placements": 260, "plan rebuilds": 0}


def _counted(monkeypatch, owner, name, work, label):
    """Count the calls of ``owner.name`` in ``work[label]`` while the test runs."""
    production = getattr(owner, name)

    def counting(self, *args, **kwargs):
        work[label] += 1
        return production(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def _settled_then_interleaved(plain, calls, work):
    """The interleaved phase's work next to *plain* settled plain subscriptions."""
    network = distinct_population(plain)
    for counts in (calls, work):
        for name in counts:
            counts[name] = 0
    covering = network.filter_caches.covering
    asked = covering.hits + covering.misses
    _interleaved_phase(network)
    assert not any(broker.logical.states for broker in network.brokers.values())
    work["covering questions"] = covering.hits + covering.misses - asked
    return dict(work)


def test_logical_churn_does_not_follow_the_plain_population(table_scan_calls, monkeypatch):
    none = dict.fromkeys(table_scan_calls, 0)
    work = dict.fromkeys(WORK_BOUNDS, 0)
    _counted(monkeypatch, NeighbourForwardingState, "_place", work, "placements")
    _counted(monkeypatch, DispatchPlan, "rebuild", work, "plan rebuilds")
    small = _settled_then_interleaved(200, table_scan_calls, work)
    assert table_scan_calls == none
    large = _settled_then_interleaved(800, table_scan_calls, work)
    assert table_scan_calls == none
    # 4× the plain subscriptions around it: the same work.
    assert large == small
    for name, bound in WORK_BOUNDS.items():
        assert small[name] <= bound, (name, small)


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

    states = sum(len(broker.logical.states) for broker in network.brokers.values())
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
