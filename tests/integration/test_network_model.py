"""The model test: random operations on a network, checked against a flat specification.

A hypothesis state machine drives three subscribers and two publishers
through subscribe, unsubscribe, publish and settle, and reports every
delivery, as the client's ``notify`` callback sees it, to
:class:`tests.oracles.network.NetworkSpec`.  That specification says
which notifications each subscription must and may receive; see there.

After every settle each broker's forwarding and matching are also held
against their specifications: every neighbour's state is settled (a
broker refreshes every neighbour after each routing change, so nothing
is left to flush) and both desires and has forwarded exactly
:func:`tests.oracles.forwarding.desired_forwarding`; and the dispatch
plan matches each of the :data:`NOTIFICATIONS` to exactly the rows of
``tests/oracles/matching.py``.

Two machines add their own rules to that.  :class:`SettledMobility`
roams the subscribers (detach, ``move_to``) in the settled profile: the
network settles before and after every detach and ``move_to``, so one
relocation completes before the next begins.  A move may detach first
and let the publishers go on, so that its relocation has notifications
to replay.  It runs covering, simple and merging routing on a line of 3
to 6 brokers, and covering on a balanced binary tree of depth 2.  Every
publisher advertises :data:`ADVERTISED`, which overlaps every template:
a relocation whose subscription no advertisement lets travel strands
the old counterpart, a fault pinned by
``TestRelocationWithoutAnAdvertisedPath`` in
``tests/integration/test_physical_mobility.py``.

:class:`AdvertisementChurn` keeps the subscribers in place and churns
the advertisements instead (unadvertise, readvertise, each publisher
advertising one of :data:`ADVERTISEMENTS`), with covering routing on a
line and on the tree, a quarter of the profile's examples each.

Tier-1 runs hypothesis's default profile (100 examples of up to 50
steps); CI's fault-injection job runs the long profile registered in
``tests/conftest.py`` (``--hypothesis-profile=model-long``).
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.broker.network import PubSubNetwork
from repro.topology.builders import balanced_tree_topology, line_topology

from tests.oracles.forwarding import desired_forwarding
from tests.oracles.matching import matching_rows, row_ids
from tests.oracles.network import NetworkSpec

ADVERTISED = {"service": ("in", ("parking", "fuel"))}

#: What a publisher advertises: everything it publishes, or one service of it.
ADVERTISEMENTS = (ADVERTISED, {"service": "parking"}, {"service": "fuel"})

#: Subscription templates; several cover others (1 covers 4 and 5, 2 covers 1, 3 and 4).
TEMPLATES = (
    {"service": "parking"},
    {"service": ("in", ("parking", "fuel"))},
    {"service": "fuel"},
    {"service": "parking", "price": ("<", 5)},
    {"service": "parking", "location": "a"},
    {"location": ("in", ("a", "b")), "price": ("<", 3)},
)

NOTIFICATIONS = tuple(
    {"service": service, "location": location, "price": price}
    for service in ("parking", "fuel")
    for location in ("a", "b")
    for price in (1, 4, 7)
)

SUBSCRIBERS = ("s0", "s1", "s2")
PUBLISHERS = ("p0", "p1")

publishers = st.sampled_from(PUBLISHERS)
notifications = st.sampled_from(NOTIFICATIONS)


class SettledClients(RuleBasedStateMachine):
    """One network under random client operations; the topology and strategy are fixed per run."""

    strategy = "covering"
    tree = False

    @initialize(data=st.data())
    def build(self, data):
        if self.tree:
            graph = balanced_tree_topology(2, 2)
        else:
            graph = line_topology(data.draw(st.integers(3, 6), label="brokers"))
        self.network = PubSubNetwork(graph, strategy=self.strategy, latency=0.01)
        self.brokers = sorted(self.network.brokers)
        self.spec = NetworkSpec()
        #: broker -> the (row seq, size) of its subscription table at its last plan check.
        self.matched_rows = {}
        self.notified = []
        self.clients = {}
        #: publisher -> the id of its advertisement, while it has one.
        self.advertisements = {}
        for client_id in SUBSCRIBERS + PUBLISHERS:
            broker = data.draw(st.sampled_from(self.brokers), label=client_id)
            self.clients[client_id] = self.network.add_client(
                client_id, broker, notify=self._notify_for(client_id)
            )
            self.spec.attach(client_id)
        for client_id in PUBLISHERS:
            self._advertise(client_id, self.first_advertisement(data))
        # Each subscriber starts with one subscription, established below.
        for client_id in SUBSCRIBERS:
            self.subscribe(client_id, data.draw(st.sampled_from(TEMPLATES), label="template"))
        self._settle()

    def first_advertisement(self, data):
        """What a publisher advertises when the network is built."""
        return ADVERTISED

    def _advertise(self, client_id, template):
        self.advertisements[client_id] = self.clients[client_id].advertise(template)
        self.spec.advertise(client_id, template)

    def _notify_for(self, client_id):
        def notify(subscription_id, notification, sequence):
            self.notified.append((client_id, subscription_id, notification.identity))

        return notify

    def _report_deliveries(self):
        notified, self.notified = self.notified, []
        for client_id, subscription_id, identity in notified:
            self.spec.deliver(client_id, subscription_id, identity)

    def _settle(self):
        self.network.settle()
        self._report_deliveries()
        self.spec.settle()
        for broker in self.network.brokers.values():
            self._check_broker(broker)

    def _check_broker(self, broker):
        """Forwarding states and dispatch plan against their specifications."""
        for neighbour, state in broker.forwarding.states.items():
            assert state.settled(), (broker.name, neighbour, "unsettled after settle")
            expected = desired_forwarding(broker, neighbour)
            assert state.desired == expected, (broker.name, neighbour)
            assert state.forwarded == expected, (broker.name, neighbour)
        table = broker.subscription_table
        # Rows are created with a new seq and removed by shrinking the
        # table, so an unchanged (seq, size) is an unchanged set of rows.
        rows = (table.row_seq, len(table))
        if self.matched_rows.get(broker.name) == rows:
            return
        self.matched_rows[broker.name] = rows
        for attributes in NOTIFICATIONS:
            assert row_ids(broker._dispatch_plan.match(attributes)) == row_ids(
                matching_rows(table, attributes)
            ), (broker.name, attributes)

    def teardown(self):
        network = getattr(self, "network", None)
        if network is not None:
            network.close()

    @rule(client_id=st.sampled_from(SUBSCRIBERS), template=st.sampled_from(TEMPLATES))
    def subscribe(self, client_id, template):
        subscription_id = self.clients[client_id].subscribe(template)
        self.spec.subscribe(client_id, subscription_id, template)

    @precondition(lambda self: any(self.clients[c].subscription_ids() for c in SUBSCRIBERS))
    @rule(data=st.data())
    def unsubscribe(self, data):
        held = [(c, s) for c in SUBSCRIBERS for s in self.clients[c].subscription_ids()]
        client_id, subscription_id = data.draw(st.sampled_from(held), label="subscription")
        self.clients[client_id].unsubscribe(subscription_id)
        self.spec.unsubscribe(client_id, subscription_id)

    @rule(client_id=publishers, attributes=notifications)
    def publish(self, client_id, attributes):
        notification = self.clients[client_id].publish(attributes)
        self.spec.publish(notification.identity, attributes)
        self._report_deliveries()

    @rule()
    def settle(self):
        self._settle()


class SettledMobility(SettledClients):
    """Subscribers roam; every publisher advertises :data:`ADVERTISED`."""

    @rule(client_id=st.sampled_from(SUBSCRIBERS))
    def detach(self, client_id):
        self._settle()
        self.clients[client_id].detach()
        self.spec.detach(client_id)
        self._settle()

    @rule(client_id=st.sampled_from(SUBSCRIBERS), data=st.data())
    def move_to(self, client_id, data):
        """Roam to a drawn broker; what is published on the way is missed and replayed."""
        broker = data.draw(st.sampled_from(self.brokers), label="to")
        on_the_way = data.draw(st.lists(st.tuples(publishers, notifications), max_size=3))
        if on_the_way:
            self.detach(client_id)
            for publisher, attributes in on_the_way:
                self.publish(publisher, attributes)
        self._settle()
        self.clients[client_id].move_to(self.network.broker(broker))
        self.spec.attach(client_id)
        self._settle()


class AdvertisementChurn(SettledClients):
    """Subscribers stay; publishers withdraw and issue advertisements."""

    def first_advertisement(self, data):
        return data.draw(st.sampled_from(ADVERTISEMENTS), label="advertisement")

    @precondition(lambda self: self.advertisements)
    @rule(data=st.data())
    def unadvertise(self, data):
        client_id = data.draw(st.sampled_from(sorted(self.advertisements)), label="publisher")
        self.clients[client_id].unadvertise(self.advertisements.pop(client_id))
        self.spec.unadvertise(client_id)

    @precondition(lambda self: len(self.advertisements) < len(PUBLISHERS))
    @rule(data=st.data(), template=st.sampled_from(ADVERTISEMENTS))
    def readvertise(self, data, template):
        silent = [c for c in PUBLISHERS if c not in self.advertisements]
        self._advertise(data.draw(st.sampled_from(silent), label="publisher"), template)


def _machine(base, strategy, tree=False, share=1):
    machine = type(
        "{}_{}{}".format(base.__name__, strategy, "_tree" if tree else ""),
        (base,),
        {"strategy": strategy, "tree": tree},
    )
    # Steps settle whole networks: no per-example deadline.  The step
    # count comes from the loaded profile, the example count is *share*
    # of the profile's.
    machine.TestCase.settings = settings(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        max_examples=max(1, int(settings.default.max_examples * share)),
    )
    return machine.TestCase


TestCoveringLine = _machine(SettledMobility, "covering")
TestSimpleLine = _machine(SettledMobility, "simple")
TestMergingLine = _machine(SettledMobility, "merging")
TestCoveringTree = _machine(SettledMobility, "covering", tree=True)
TestAdvertisementChurnLine = _machine(AdvertisementChurn, "covering", share=0.25)
TestAdvertisementChurnTree = _machine(AdvertisementChurn, "covering", tree=True, share=0.25)
