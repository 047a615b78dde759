"""Content-based routing.

Every broker maintains a routing table whose entries are pairs ``(F, L)``
of a filter and the link (or local client) it was received from
(Section 2.2 of the paper).  The table answers two questions:

* for a notification: which destinations have registered a matching
  filter (notification forwarding);
* for the set of active subscriptions: which filters should be forwarded
  to each neighbour broker (subscription forwarding).

The second question is what the different *routing strategies* answer
differently:

* **flooding** — notifications are forwarded everywhere, subscriptions are
  never forwarded;
* **simple** — every distinct subscription is forwarded unchanged
  (identical filters are forwarded once: that is the paper's
  identity-based routing, so there is no second strategy for it);
* **covering** — a filter is not forwarded when an already forwarded
  filter covers it, and newly forwarded covers replace the filters they
  cover;
* **merging** — in addition to covering, sets of filters are merged into
  covering filters before forwarding.
"""

from repro.routing.table import RoutingTable, RoutingEntry
from repro.routing.strategies import RoutingStrategy, make_strategy

__all__ = [
    "RoutingTable",
    "RoutingEntry",
    "RoutingStrategy",
    "make_strategy",
]
