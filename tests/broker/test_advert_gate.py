"""The advertisement gate against its flat specification.

``SubscriptionForwarding.may_forward`` lets a filter travel toward a
neighbour only when that neighbour advertised something overlapping it
(Section 2.2).  Each neighbour's state memoises its verdicts in
``verdicts``; a miss scans the advertisement rows received from the
neighbour with :func:`~repro.filters.covering.filters_may_overlap`, and
one advertisement-table delta listener clears the memo whenever the
neighbour's rows change.  Nothing versions the memo.  Every verdict is
held against the flat gate of ``tests/oracles/matching.py``
(``advertised_via``, a linear overlap hint over the neighbour's
advertisement rows):

* case by case, and under arbitrary table churn (the mutations of
  ``tests/dispatch/test_plan_oracle.py``), on a bare broker whose
  advertisement table is written directly;
* over random advertise / unadvertise / subscribe / crash-restart steps
  on a small network, where whenever a neighbour's advertisement rows
  change, its memo is also empty right after the component has heard of
  it;
* and the pairwise predicate on its own, which equals the flat overlap
  hint on random filter pairs.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.broker.base import Broker, BrokerConfig
from repro.broker.network import PubSubNetwork
from repro.filters.covering import filters_may_overlap
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.routing.strategies import make_strategy
from repro.runtime.latency import FixedLatency
from repro.sim.engine import Simulator
from repro.sim.network import Link
from repro.topology.builders import line_topology

from tests.dispatch.test_plan_oracle import mutate, mutations
from tests.dispatch.test_predicate_index import plain_filters
from tests.oracles.matching import advertised_via, filters_overlap_hint


def F(**constraints):
    return Filter(constraints)


NEIGHBOURS = ("N1", "N2")


def gated_broker():
    """A broker with links to ``N1`` and ``N2``, and its advertisement table."""
    simulator = Simulator()
    broker = Broker("B", simulator, make_strategy("covering"), config=BrokerConfig())
    for neighbour in NEIGHBOURS:
        broker.add_link(
            Link(simulator, "B", neighbour, lambda message, link: None, FixedLatency(0.0))
        )
    return broker, broker.advertisement_table


def check_gate(broker, filters):
    """Every neighbour's verdict on each of *filters*, memoised or not, is the flat gate's."""
    table = broker.advertisement_table
    for neighbour in NEIGHBOURS:
        for filter_ in filters:
            expected = advertised_via(table, neighbour, filter_)
            # Twice: the second answer comes from the memo.
            assert broker.forwarding.may_forward(neighbour, filter_) == expected, (
                neighbour,
                filter_,
            )
            assert broker.forwarding.may_forward(neighbour, filter_) == expected


class TestGateCases:
    def test_gate_tracks_adverts_incrementally(self):
        broker, adverts = gated_broker()
        gate = broker.forwarding.may_forward
        query = F(service="parking", location="a")
        assert gate("N1", query) is False
        adverts.add(F(service="parking"), "N1", "a1")
        assert gate("N1", query) is True
        assert gate("N2", query) is False
        adverts.remove(F(service="parking"), "N1", "a1")
        assert gate("N1", query) is False

    def test_disjoint_equalities_are_pruned(self):
        broker, adverts = gated_broker()
        gate = broker.forwarding.may_forward
        adverts.add(F(service="fuel"), "N1", "a1")
        assert gate("N1", F(service="parking")) is False
        adverts.add(F(service="parking", location=("in", ["a", "b"])), "N1", "a2")
        assert gate("N1", F(service="parking", location="a")) is True
        assert gate("N1", F(service="parking", location="c")) is False

    def test_multi_attribute_disjointness(self):
        broker, adverts = gated_broker()
        gate = broker.forwarding.may_forward
        adverts.add(F(service="parking", location="a"), "N1", "a1")
        assert gate("N1", F(service="parking", location="b")) is False
        assert gate("N1", F(floor=3)) is True
        # One overlapping row among disjoint ones opens the gate.
        adverts.add(F(service="parking", location="b"), "N1", "a2")
        assert gate("N1", F(service="parking", location="b")) is True

    def test_non_finite_constraints_never_prove_disjointness(self):
        broker, adverts = gated_broker()
        adverts.add(F(cost=("<", 3)), "N1", "a1")
        assert broker.forwarding.may_forward("N1", F(cost=5)) is True

    def test_unconstrained_advert_overlaps_everything(self):
        broker, adverts = gated_broker()
        gate = broker.forwarding.may_forward
        adverts.add(MatchAll(), "N1", "a1")
        assert gate("N1", F(service="parking")) is True
        assert gate("N1", MatchNone()) is False

    def test_a_client_advertisement_gates_no_neighbour(self):
        broker, adverts = gated_broker()
        adverts.add(MatchAll(), "c1", "a1")
        assert broker.forwarding.may_forward("N1", F(service="parking")) is False

    def test_randomized_gate_equals_scan(self):
        rng = random.Random(77)
        broker, adverts = gated_broker()
        services = ["parking", "fuel", "bus"]
        locations = ["a", "b", "c", "d"]
        pool = []
        for _ in range(40):
            template = {}
            if rng.random() < 0.8:
                template["service"] = rng.choice(services)
            if rng.random() < 0.6:
                count = rng.randint(1, 3)
                template["location"] = ("in", rng.sample(locations, count))
            if rng.random() < 0.3:
                template["cost"] = ("<", rng.randint(1, 5))
            pool.append(Filter(template))
        live = []
        for step in range(300):
            if live and rng.random() < 0.4:
                filter_, destination, subject = live.pop(rng.randrange(len(live)))
                adverts.remove(filter_, destination, subject)
            else:
                filter_ = rng.choice(pool + [MatchNone(), MatchAll()])
                destination = rng.choice(NEIGHBOURS)
                subject = "a{}".format(step)
                adverts.add(filter_, destination, subject)
                live.append((filter_, destination, subject))
            check_gate(broker, [rng.choice(pool)])


#: Gate queries asked after every mutation (besides the generated ones).
PROBES = [
    Filter({"service": "parking"}),
    Filter({"service": "fuel", "location": ("in", ["a", "b"])}),
    Filter({"location": "c", "cost": ("<", 3)}),
    MatchAll(),
]


@settings(max_examples=250, deadline=None)
@given(
    schedule=st.lists(
        st.one_of(mutations(), st.tuples(st.just("gate"), plain_filters())), min_size=1, max_size=40
    )
)
def test_gate_equals_oracle_under_arbitrary_table_churn(schedule):
    broker, adverts = gated_broker()
    for operation in schedule:
        if operation[0] == "gate":
            check_gate(broker, [operation[1]])
        else:
            mutate(adverts, operation)
            check_gate(broker, PROBES)


class TestOverlapPredicate:
    def test_multi_attribute_disjointness(self):
        advert = F(service="parking", location="a")
        # Shares the service value but not the location value: disjoint.
        assert filters_may_overlap(advert, F(service="parking", location="b")) is False
        assert filters_may_overlap(F(service="parking", location="b"), advert) is False
        # Constrains only an attribute the ad does not: overlaps.
        assert filters_may_overlap(advert, F(floor=3)) is True

    def test_non_finite_constraints_never_prove_disjointness(self):
        # Mirrors the hint's blind spot: ``cost < 3`` and ``cost = 5`` are disjoint.
        assert filters_may_overlap(F(cost=("<", 3)), F(cost=5)) is True
        assert filters_may_overlap(F(cost=5), F(cost=("<", 3))) is True

    def test_sets_and_equalities_compare_typed_values(self):
        assert filters_may_overlap(F(flag=True), F(flag=1)) is False
        assert filters_may_overlap(F(level=1), F(level=1.0)) is True
        assert filters_may_overlap(F(flag=("in", [True, "a"])), F(flag=("in", [1, "a"]))) is True
        assert filters_may_overlap(F(flag=("in", [True, 0])), F(flag=("in", [1, False]))) is False


#: Values Python calls equal across types (``True == 1 == 1.0``); only 1 and 1.0 may overlap.
TYPED_VALUES = [True, False, 1, 0, 1.0, "a", "b"]


def typed_filters():
    """Filters over two attributes: equalities, sets, a bound and the trivial ones."""
    spec = st.one_of(
        st.sampled_from(TYPED_VALUES),
        st.tuples(st.just("in"), st.lists(st.sampled_from(TYPED_VALUES), min_size=1, max_size=3)),
        st.tuples(st.just("<"), st.sampled_from([0, 1, 2])),
        st.just(("exists",)),
    )
    return st.one_of(
        st.dictionaries(st.sampled_from(["x", "y"]), spec, max_size=2).map(Filter),
        st.just(MatchNone()),
        st.just(MatchAll()),
    )


@settings(max_examples=300, deadline=None)
@given(left=typed_filters(), right=typed_filters())
def test_predicate_equals_the_overlap_hint(left, right):
    assert filters_may_overlap(left, right) == filters_overlap_hint(left, right)


# ---------------------------------------------------------------------------
# On a network
# ---------------------------------------------------------------------------

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


class _StaleMemoWatch:
    """Advertisement-table delta listener, after the component's own.

    Records a changed neighbour whose memo survived the change.
    """

    def __init__(self, broker, stale):
        self.broker = broker
        self.stale = stale

    def _check(self, row):
        state = self.broker.forwarding.states.get(row.destination)
        if state is not None and state.verdicts:
            self.stale.append((self.broker.name, row.destination, dict(state.verdicts)))

    def row_subject_added(self, row, subject, created_row):
        self._check(row)

    def row_subjects_removed(self, row, subjects, removed_row):
        self._check(row)


def _watch(broker, stale):
    broker.advertisement_table.add_delta_listener(_StaleMemoWatch(broker, stale))


def _assert_gate_is_flat(network):
    for broker in network.brokers.values():
        for neighbour in broker.neighbours():
            for filter_ in QUERIES:
                flat = advertised_via(broker.advertisement_table, neighbour, filter_)
                gate = broker.forwarding.may_forward(neighbour, filter_)
                assert gate == flat, (broker.name, neighbour, filter_)


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
        _assert_gate_is_flat(network)
        assert stale == []
