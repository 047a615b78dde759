"""The Rebeca-style broker network.

* :class:`~repro.broker.base.Broker` — a broker process: routing tables,
  the notification path, client registrations, and one component each
  for subscription forwarding (:mod:`repro.broker.forwarding`), both
  mobility protocols and reliability.
* :class:`~repro.broker.client.Client` — the client library (which, as in
  the paper, plays the role of the *local broker*): the ``pub`` / ``sub``
  / ``unsub`` / ``notify`` interface, plus physical roaming
  (``move_to``) and logical mobility (``set_location``).
* :class:`~repro.broker.network.PubSubNetwork` — assembles brokers and
  links from a :class:`~repro.topology.BrokerGraph` and provides the
  simulation-facing convenience API used by examples and experiments.
"""

from repro.broker.base import Broker, BrokerConfig
from repro.broker.client import Client
from repro.broker.network import PubSubNetwork

__all__ = ["Broker", "BrokerConfig", "Client", "PubSubNetwork"]
