"""Shared fixtures for the test suite."""

import pytest
from hypothesis import settings

from repro.broker.forwarding import NeighbourForwardingState
from repro.broker.network import PubSubNetwork
from repro.core.ploc import MovementGraph
from repro.sim.rng import DeterministicRandom
from repro.routing.table import RoutingTable
from repro.topology.builders import line_topology

#: The model test's long run (tests/integration/test_network_model.py):
#: ``pytest --hypothesis-profile=model-long``.  Tier-1 keeps hypothesis's
#: default profile.
settings.register_profile("model-long", max_examples=500, stateful_step_count=40)


@pytest.fixture
def rng():
    """A deterministic RNG with a fixed seed."""
    return DeterministicRandom(1234)


@pytest.fixture
def table_scan_calls(monkeypatch):
    """Calls, by name, of the three O(table) entry points while the test runs:
    a forwarding state's rebuild from the rows, and the table's two scans
    for a subject's rows."""
    counted = {}
    for owner, name in (
        (NeighbourForwardingState, "rebuild_from_rows"),
        (RoutingTable, "entries_for_subject"),
        (RoutingTable, "remove_subject"),
    ):
        counted[name] = 0

        def counting(self, *args, _production=getattr(owner, name), _name=name, **kwargs):
            counted[_name] += 1
            return _production(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counted


@pytest.fixture
def paper_movement_graph():
    """The four-location movement graph of Figure 7."""
    return MovementGraph.paper_example()


@pytest.fixture
def line4_network():
    """A four-broker line network with covering routing (50 ms links)."""
    return PubSubNetwork(line_topology(4), strategy="covering", latency=0.05)


@pytest.fixture
def flooding_line4_network():
    """A four-broker line network with flooding routing."""
    return PubSubNetwork(line_topology(4), strategy="flooding", latency=0.05)
