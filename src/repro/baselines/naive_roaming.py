"""Naive physical roaming (the Figure 2 baseline).

"A different, naïve solution to implement physical mobility would be to
use sequences of sub-unsub-sub calls to register a client at a new broker
... during its time of disconnectedness, the client might miss several
notifications or get duplicates, even if notifications are flooded in the
network and the location change is instantaneous." (Section 3.2)

:class:`NaiveRoamingClient` wraps an ordinary :class:`~repro.broker.client.Client`
and performs relocations without any middleware support:

* ``leave()`` — the client walks out of range.  In the *polite* variant it
  manages to unsubscribe first; in the *abrupt* variant (the realistic
  one — "a client may not detect leaving the range of a broker") the old
  subscription simply stays behind and matching notifications delivered
  there are lost.
* ``arrive(broker)`` — the client re-subscribes from scratch at the new
  broker; anything published before the new subscription has propagated is
  missed, and anything already delivered at the old broker *and* again at
  the new one is a duplicate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.broker.base import Broker
from repro.broker.client import Client
from repro.filters.filter import Filter


class NaiveRoamingClient:
    """A roaming consumer that relies only on plain sub/unsub calls."""

    POLITE = "polite"  # unsubscribes before leaving
    ABRUPT = "abrupt"  # leaves without unsubscribing (cannot detect it)

    def __init__(
        self,
        client_id: str,
        filter_: Any,
        variant: str = ABRUPT,
    ) -> None:
        if variant not in (self.POLITE, self.ABRUPT):
            raise ValueError("unknown naive-roaming variant: {!r}".format(variant))
        self.client = Client(client_id)
        self.filter = filter_ if isinstance(filter_, Filter) else Filter(filter_)
        self.variant = variant
        self._subscription_counter = 0
        self._current_subscription: Optional[str] = None

    # -- movement ---------------------------------------------------------
    def arrive(self, broker: Broker) -> str:
        """Attach at *broker* and issue a fresh plain subscription."""
        if self.client.attached:
            self.leave()
        self.client.attach(broker)
        self._subscription_counter += 1
        subscription_id = "naive-{}".format(self._subscription_counter)
        self.client.subscribe(self.filter, subscription_id=subscription_id)
        self._current_subscription = subscription_id
        return subscription_id

    def leave(self) -> None:
        """Walk out of range of the current border broker."""
        broker = self.client.border_broker
        if broker is None:
            return
        if self.variant == self.POLITE and self._current_subscription is not None:
            self.client.unsubscribe(self._current_subscription)
        # No virtual counterpart: the unmodified middleware keeps (or, in
        # the polite variant, has already dropped) the subscription, and
        # whatever it tries to deliver while the client is away is lost.
        broker.detach_client(self.client.client_id, keep_counterpart=False)
        # The client library forgets its local broker without a handshake ...
        self.client.drop_connection()
        if self._current_subscription is not None:
            # ... and the subscription, while detached, so the next arrival
            # registers a fresh one, as the naive scheme does.
            self.client.unsubscribe(self._current_subscription)
            self._current_subscription = None

    # -- results ---------------------------------------------------------------
    def received_identities(self) -> List[tuple]:
        """Identities of all notifications this client received (any subscription)."""
        return self.client.received_identities()

    def duplicate_identities(self) -> List[tuple]:
        """Identities delivered more than once across the roaming history."""
        seen: Dict[tuple, int] = {}
        for identity in self.client.received_identities():
            seen[identity] = seen.get(identity, 0) + 1
        return [identity for identity, count in seen.items() if count > 1]

    @property
    def client_id(self) -> str:
        """The wrapped client's identifier."""
        return self.client.client_id
