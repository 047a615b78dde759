"""A client that moves again before its last relocation has completed.

Every other relocation test, and the end-to-end harness, settles between
moves.  These two do not.  Both lose notifications for good, on every
backend and under simple and covering routing alike, so they are strict
expected failures until the relocation protocol (Section 4 / 4.1) copes
with overlapping moves:

* (a) moving back onto the old border before the relocation reaches it
  leaves a virtual counterpart at the intermediate border, and the
  notifications routed to it never arrive;
* (b) detaching at the new border before its relocation completes loses
  the notification replayed to it.

The set-up of both: a 3-broker line ``B1 - B2 - B3`` at latency 0.01,
one publisher per broker advertising ``{"service": "parking"}``, and
subscriber ``s0`` at ``B1``.  The test ids carry the backend, so each
backend's parity run selects its own.
"""

import pytest

from repro.broker.network import PubSubNetwork
from repro.runtime.factory import make_runtime
from repro.topology.builders import line_topology

BROKERS = ("B1", "B2", "B3")

backends = pytest.mark.parametrize("backend", ["sim", "aio-memory"])
strategies = pytest.mark.parametrize("strategy", ["covering", "simple"])


def _line(backend, strategy):
    network = PubSubNetwork(
        line_topology(3), strategy=strategy, runtime=make_runtime(backend, 0.01)
    )
    publishers = []
    for broker in BROKERS:
        publisher = network.add_client("p" + broker, broker)
        publisher.advertise({"service": "parking"})
        publishers.append(publisher)
    subscriber = network.add_client("s0", "B1")
    subscriber.subscribe({"service": "parking"})
    network.settle()
    return network, publishers, subscriber


def _counterparts(network):
    """Broker name -> the subscription tokens of its virtual counterparts."""
    return {
        name: sorted(broker.physical.counterparts)
        for name, broker in network.brokers.items()
        if broker.physical.counterparts
    }


@backends
@strategies
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the return to B1 meets B2's MovedSubscribe in flight: 1 of 3 "
    "delivered, the rest held in a counterpart left at B2",
)
def test_returning_before_the_relocation_arrives_loses_nothing(backend, strategy):
    network, publishers, subscriber = _line(backend, strategy)
    try:
        subscriber.move_to(network.broker("B2"))
        subscriber.move_to(network.broker("B1"))
        network.settle()
        for publisher in publishers:
            publisher.publish({"service": "parking"})
        network.settle()
        assert len(subscriber.received) == 3
        assert _counterparts(network) == {}
    finally:
        network.close()


@backends
@strategies
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="B2's relocation buffer flushes into a detached client: 0 of 1 delivered",
)
def test_detaching_before_the_relocation_completes_loses_nothing(backend, strategy):
    network, publishers, subscriber = _line(backend, strategy)
    try:
        subscriber.move_to(network.broker("B2"))
        subscriber.detach()
        publishers[0].publish({"service": "parking"})
        network.settle()
        subscriber.move_to(network.broker("B3"))
        network.settle()
        assert len(subscriber.received) == 1
    finally:
        network.close()
