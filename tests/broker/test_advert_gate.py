"""The advertisement gate's memo against a fresh overlap query.

``SubscriptionForwarding.may_forward`` memoises, per neighbour, whether
a filter overlaps something that neighbour advertised.  Nothing versions
the memo: the advertisement table's change listener clears a
neighbour's verdicts whenever that neighbour's rows change.  Over random
advertise / unadvertise / subscribe / crash-restart steps on a small
network this checks both halves of that contract:

* after every step, every ``may_forward(n, f)`` equals a fresh
  ``plan.advertised_via(n, f)``;
* whenever a neighbour's advertisement rows change, its memo is empty
  right after the component has heard of it.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.broker.network import PubSubNetwork
from repro.filters.filter import Filter
from repro.topology.builders import line_topology

LOCATIONS = ("a", "b", "c", "d")

#: What producers advertise: overlapping, disjoint and nested location sets.
ADVERTS = tuple(
    {"service": service, "location": ("in", locations)}
    for service in ("parking", "fuel")
    for locations in (("a",), ("a", "b"), ("c", "d"), LOCATIONS)
)

#: What consumers subscribe to, and the filters every check asks about.
QUERIES = (
    *(Filter({"service": "parking", "location": location}) for location in LOCATIONS),
    Filter({"service": "fuel"}),
    Filter({"service": "parking", "location": ("in", ("b", "c"))}),
)

BROKER = st.integers(0, 4)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("advertise"), BROKER, st.integers(0, len(ADVERTS) - 1)),
        st.tuples(st.just("unadvertise"), BROKER, st.integers(0, 7)),
        st.tuples(st.just("subscribe"), BROKER, st.integers(0, len(QUERIES) - 1)),
        st.tuples(st.just("crash"), BROKER, st.just(0)),
    ),
    min_size=1,
    max_size=16,
)


def _watch(broker, stale):
    """After the component's own listener: record a changed neighbour whose memo survived."""

    def listener(destination):
        states = broker.forwarding.states
        for neighbour in states if destination is None else (destination,):
            if neighbour in states and states[neighbour].verdicts:
                stale.append((broker.name, neighbour, dict(states[neighbour].verdicts)))

    broker.advertisement_table.add_listener(listener)


def _assert_gate_is_fresh(network):
    for broker in network.brokers.values():
        for neighbour in broker.neighbours():
            for filter_ in QUERIES:
                fresh = broker._dispatch_plan.advertised_via(neighbour, filter_)
                gate = broker.forwarding.may_forward(neighbour, filter_)
                assert gate == fresh, (broker.name, neighbour, filter_)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(size=st.integers(3, 5), steps=STEPS)
def test_gate_equals_a_fresh_overlap_query(size, steps):
    network = PubSubNetwork(line_topology(size), strategy="covering", latency=0.01)
    network.enable_recovery()
    names = sorted(network.brokers)
    clients = {name: network.add_client("c" + name, name) for name in names}
    advertised = {name: [] for name in names}
    stale = []
    for broker in network.brokers.values():
        _watch(broker, stale)
    for kind, index, choice in steps:
        name = names[index % size]
        client = clients[name]
        if kind == "advertise":
            advertised[name].append(client.advertise(ADVERTS[choice]))
        elif kind == "unadvertise":
            if advertised[name]:
                client.unadvertise(advertised[name].pop(choice % len(advertised[name])))
        elif kind == "subscribe":
            client.subscribe(QUERIES[choice])
        else:
            broker = network.brokers[name]
            network.crash_broker(name)
            _watch(broker, stale)
            network.restart_broker(name)
            client.attach(broker)
        network.settle()
        _assert_gate_is_fresh(network)
        assert stale == []
