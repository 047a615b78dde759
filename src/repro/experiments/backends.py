"""Backend threading for the experiment suite.

Every experiment that builds a network takes one :class:`Backend` value:
the runtime its networks run on, by name (see
:func:`repro.runtime.factory.make_runtime`), and the telemetry they
stream, if any.  The default, ``Backend()``, is the discrete-event
simulator with telemetry off.  The backend-parity CI gate runs the
*same* experiments with ``Backend("aio-memory")`` and
``Backend("aio-tcp")`` and compares traces.

:func:`build_network` is the one place the value is read, so the
experiments themselves stay backend-agnostic: they describe topology,
strategy and latency, and get a wired :class:`PubSubNetwork` back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.broker.base import BrokerConfig
from repro.broker.network import PubSubNetwork
from repro.runtime.factory import make_runtime
from repro.telemetry import TelemetryConfig
from repro.topology.graph import BrokerGraph


@dataclass(frozen=True)
class Backend:
    """Where an experiment's networks run and where their telemetry goes.

    *name* is one of :data:`~repro.runtime.factory.BACKENDS`.  With
    *telemetry* set, every network the experiment builds streams through
    its own sink from that config; with ``None`` the networks run dark.
    """

    name: str = "sim"
    telemetry: Optional[TelemetryConfig] = None


def build_network(
    graph: BrokerGraph,
    backend: Backend,
    strategy: str = "covering",
    latency: Any = None,
    config: Optional[BrokerConfig] = None,
) -> PubSubNetwork:
    """A :class:`PubSubNetwork` on a fresh runtime of *backend*.

    ``latency=None`` is the backend's default link latency.
    """
    return PubSubNetwork(
        graph,
        strategy=strategy,
        config=config,
        runtime=make_runtime(backend.name, latency),
        telemetry=backend.telemetry,
    )
