"""The model test: random operations on a network, checked against a flat specification.

A hypothesis state machine drives three subscribers and two publishers
through subscribe, unsubscribe, publish, detach, ``move_to`` and settle,
and reports every delivery, as the client's ``notify`` callback sees it,
to :class:`tests.oracles.network.NetworkSpec`.  That specification says
which notifications each subscription must and may receive; see there.

This is the settled profile: the network settles before and after every
detach and ``move_to``, so one relocation completes before the next
begins.  A move may detach first and let the publishers go on, so that
its relocation has notifications to replay.  It runs covering, simple
and merging routing on a line of 3 to 6 brokers, and covering on a
balanced binary tree of depth 2.

Tier-1 runs hypothesis's default profile (100 examples of up to 50
steps); CI's fault-injection job runs the long profile registered in
``tests/conftest.py`` (``--hypothesis-profile=model-long``).
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.broker.network import PubSubNetwork
from repro.topology.builders import balanced_tree_topology, line_topology

from tests.oracles.network import NetworkSpec

ADVERTISED = {"service": ("in", ("parking", "fuel"))}

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


class SettledMobility(RuleBasedStateMachine):
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
        self.notified = []
        self.clients = {}
        for client_id in SUBSCRIBERS + PUBLISHERS:
            broker = data.draw(st.sampled_from(self.brokers), label=client_id)
            self.clients[client_id] = self.network.add_client(
                client_id, broker, notify=self._notify_for(client_id)
            )
            self.spec.attach(client_id)
        for client_id in PUBLISHERS:
            self.clients[client_id].advertise(ADVERTISED)
        # Each subscriber starts with one subscription, established below.
        for client_id in SUBSCRIBERS:
            self.subscribe(client_id, data.draw(st.sampled_from(TEMPLATES), label="template"))
        self._settle()

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

    @rule()
    def settle(self):
        self._settle()


def _machine(strategy, tree=False):
    machine = type(
        "SettledMobility_{}{}".format(strategy, "_tree" if tree else ""),
        (SettledMobility,),
        {"strategy": strategy, "tree": tree},
    )
    # Steps settle whole networks: no per-example deadline.  The example
    # count and step count come from the loaded profile.
    machine.TestCase.settings = settings(
        deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    return machine.TestCase


TestCoveringLine = _machine("covering")
TestSimpleLine = _machine("simple")
TestMergingLine = _machine("merging")
TestCoveringTree = _machine("covering", tree=True)
