"""Control-plane messages: liveness and forwarding reliability.

The paper's system model (Section 2.1) assumes reliable FIFO links and
immortal brokers, so it needs no control traffic at all.  The robustness
layer (docs/robustness.md) breaks both assumptions and adds exactly
three link-local message types:

* :class:`Heartbeat` — periodic ``I am alive`` beacons between directly
  connected brokers; a missed lease (no heartbeat within the timeout)
  is how a neighbour *observes* a crash instead of being told about it.
* :class:`SequencedForward` — a broker→broker notification forward
  wrapped with a per-link sequence number, so the sender can retain the
  payload until the receiver acknowledges having processed it.
* :class:`ForwardAck` — the cumulative acknowledgement releasing every
  retained forward up to ``upto`` on the reverse link.

None of these are routed (they travel exactly one hop) and none are
journaled: heartbeats and acks carry no routing state, and a
``SequencedForward`` is unwrapped into the ordinary notification path on
arrival.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.messages.base import Message, MessageKind
from repro.messages.notification import NOTIFICATION, Notification


class Heartbeat(Message):
    """One liveness beacon from *sender* to a directly connected neighbour."""

    kind = MessageKind.CONTROL

    wire_fields = ("sender", "sent_at")

    __slots__ = ("sender", "sent_at")

    def __init__(
        self,
        sender: str,
        sent_at: float,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.sender = sender
        self.sent_at = float(sent_at)

    def describe(self) -> str:
        return "Heartbeat({} @ {})".format(self.sender, self.sent_at)


class SequencedForward(Message):
    """A broker→broker notification forward with a per-link sequence number.

    ``link_seq`` numbers the forwards the *sender* broker has emitted on
    this one directed link (1-based, contiguous); the sender retains the
    wrapped notification until a :class:`ForwardAck` covering the number
    arrives.  The receiver unwraps and processes ``notification``
    exactly as if it had arrived bare — the wrapper exists only so the
    retention window has identities to ack and replay by.
    """

    kind = MessageKind.NOTIFICATION

    wire_fields = (("notification", NOTIFICATION), "sender", "link_seq")

    __slots__ = ("notification", "sender", "link_seq")

    def __init__(
        self,
        notification: Notification,
        sender: str,
        link_seq: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.notification = notification
        self.sender = sender
        self.link_seq = int(link_seq)

    def describe(self) -> str:
        return "SequencedForward({} link_seq={} {})".format(
            self.sender, self.link_seq, self.notification.describe()
        )


class ForwardAck(Message):
    """Cumulative ack: every forward with ``link_seq <= upto`` is processed.

    Sent by the broker that *received* sequenced forwards, on the reverse
    link, after it has fully dispatched them; the original sender prunes
    its retention buffer up to ``upto``.
    """

    kind = MessageKind.CONTROL

    wire_fields = ("sender", "upto")

    __slots__ = ("sender", "upto")

    def __init__(
        self,
        sender: str,
        upto: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.sender = sender
        self.upto = int(upto)

    def describe(self) -> str:
        return "ForwardAck({} upto={})".format(self.sender, self.upto)

