"""Message model of the pub/sub middleware.

Everything that travels over a broker-to-broker or client-to-broker link
is a :class:`~repro.messages.base.Message`.  The module distinguishes:

* **Notifications** — the application payloads (Section 2.1), reifying an
  occurred event as a set of name/value pairs.
* **Administrative messages** — subscriptions, unsubscriptions,
  advertisements and unadvertisements that maintain the routing tables
  (Section 2.2).
* **Mobility control messages** — the messages of the physical-mobility
  relocation protocol of Section 4 (moved subscription, fetch request,
  replay) and the location-change messages of the logical-mobility
  scheme of Section 5.
"""

from repro.messages.base import Message, MessageKind
from repro.messages.notification import Notification, SequencedNotification
from repro.messages.admin import (
    Advertise,
    Subscribe,
    Unadvertise,
    Unsubscribe,
)
from repro.messages.mobility import (
    FetchRequest,
    LocationUpdate,
    MovedSubscribe,
    Replay,
)

__all__ = [
    "Message",
    "MessageKind",
    "Notification",
    "SequencedNotification",
    "Subscribe",
    "Unsubscribe",
    "Advertise",
    "Unadvertise",
    "MovedSubscribe",
    "FetchRequest",
    "Replay",
    "LocationUpdate",
]
