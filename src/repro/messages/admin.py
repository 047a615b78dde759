"""Administrative (routing-table maintenance) messages.

Subscriptions and advertisements are propagated through the broker
network to maintain the routing tables (Section 2.2).  Each admin message
names the *subject* it acts for — either a client identifier (for
messages originating at a border broker's client) or a broker identifier
(for messages a broker forwards on behalf of downstream subscribers).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.filters.filter import Filter
from repro.filters.wire import FILTER
from repro.messages.base import Message, MessageKind


class _FilterAdminMessage(Message):
    """Common base of the four admin message types."""

    kind = MessageKind.ADMIN

    wire_fields = (("filter", FILTER), "subject", "subscription_id")

    __slots__ = ("filter", "subject", "subscription_id")

    def __init__(
        self,
        filter_: Filter,
        subject: str,
        subscription_id: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        if not isinstance(filter_, Filter):
            raise TypeError("filter_ must be a Filter, got {!r}".format(filter_))
        self.filter = filter_
        self.subject = subject
        self.subscription_id = subscription_id

    def describe(self) -> str:
        return "{}(subject={}, sub_id={}, {})".format(
            type(self).__name__, self.subject, self.subscription_id, self.filter
        )


class Subscribe(_FilterAdminMessage):
    """Register interest in notifications matching ``filter``."""


class Unsubscribe(_FilterAdminMessage):
    """Withdraw a previously registered subscription."""


class Advertise(_FilterAdminMessage):
    """Announce that the subject will publish notifications matching ``filter``."""


class Unadvertise(_FilterAdminMessage):
    """Withdraw a previously issued advertisement."""
