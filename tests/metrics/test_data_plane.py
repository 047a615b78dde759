"""The data-plane breakdown must surface matching, dispatch and gate work."""

from repro.broker.base import Broker, BrokerConfig
from repro.filters.filter import Filter
from repro.messages.notification import Notification
from repro.routing.strategies import make_strategy
from repro.runtime.latency import FixedLatency
from repro.sim.engine import Simulator
from repro.sim.network import Link
from repro.telemetry.registry import data_plane_breakdown


def _make_broker():
    simulator = Simulator()
    broker = Broker("B", simulator, make_strategy("covering"), config=BrokerConfig())
    broker.add_link(
        Link(simulator, "B", "N1", lambda message, link: None, FixedLatency(0.0))
    )
    return broker


def test_breakdown_counts_scan_and_indexed_work():
    broker = _make_broker()
    before = data_plane_breakdown([broker])
    assert before["constraint_evals"] == 0
    assert before["dispatch_matches"] == 0
    # Indexed work: the equality is a bucket hit.  Scan work: the ``!=``
    # constraint sits in a residual scan list and is evaluated.
    broker.subscription_table.add(Filter({"service": "parking", "note": ("!=", "x")}), "N1", "s1")
    # A direct Filter.matches is a pure function: no broker counts it.
    assert Filter({"service": "parking"}).matches({"service": "parking"})
    broker._handle_notification(
        Notification({"service": "parking", "note": "y"}, "p", 1), from_destination="c1"
    )
    after = data_plane_breakdown([broker])
    assert after["constraint_evals"] == after["dispatch_constraint_evals"] == 1
    assert after["dispatch_matches"] == 1
    assert after["dispatch_satisfied_predicates"] == 2
    assert after["dispatch_filters_matched"] == 1


def test_breakdown_exposes_advert_gate_cache():
    broker = _make_broker()
    broker.advertisement_table.add(Filter({"service": "parking"}), "N1", "a1")
    query = Filter({"service": "parking", "location": "a"})
    assert broker.forwarding.may_forward("N1", query) is True
    assert broker.forwarding.may_forward("N1", query) is True
    stats = data_plane_breakdown([broker])
    assert stats["advert_gate_misses"] == 1
    assert stats["advert_gate_hits"] == 1
    assert stats["advert_gate_cached_verdicts"] == 1
