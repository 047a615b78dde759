"""Point-to-point FIFO links on a virtual clock.

The paper assumes "point-to-point, FIFO order communication links, e.g.,
TCP connections, that are error-free, a common assumption that can be
relieved later" (Section 2.1).  :class:`Link` implements exactly that —
a unidirectional FIFO channel with a latency model — plus an optional
:class:`~repro.runtime.faults.FaultModel` used by robustness tests to
"relieve" the error-free assumption (drops, duplicates, scheduled
partitions and broker-down windows).

It is the one link of every backend that models time: the simulator
runtime's links deliver straight into a broker, the virtual-time asyncio
runtime's into an :class:`~repro.runtime.aio.AioChannel`, which frames
each message onto its byte stream.

FIFO order is enforced even under a jittering latency model: a message
never overtakes a previously sent one because the delivery time is clamped
to be at least the delivery time of the link's previous message.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.messages.base import Message
from repro.runtime.faults import FaultModel
from repro.runtime.latency import LatencyModel
from repro.runtime.trace import TraceRecorder
from repro.sim.engine import Simulator


class Link:
    """A unidirectional FIFO link from *source* to *target*.

    The *deliver* callback is invoked (via the simulator) with
    ``(message, link)`` once the latency has elapsed.

    Each message gets its own latency sample, FIFO clamp and fault
    decision **at send time**, but the link coalesces its deliveries into
    *flush* events: it keeps one pending flush event that delivers every
    queued message whose delivery time has been reached, then re-arms for
    the next one.  A broker emitting k administrative messages on one
    link at the same instant therefore costs one event, not k — the
    dominant event-loop saving on the routing-churn hot path.
    """

    def __init__(
        self,
        simulator: Simulator,
        source: str,
        target: str,
        deliver: Callable[[Message, "Link"], None],
        latency: LatencyModel,
        trace: Optional[TraceRecorder] = None,
        fault_model: Optional[FaultModel] = None,
    ) -> None:
        self.simulator = simulator
        self.source = source
        self.target = target
        self._deliver = deliver
        self.latency = latency
        self.trace = trace
        self.fault_model = fault_model
        self._last_delivery_time = simulator.now
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.flush_count = 0
        # Messages waiting on the wire: (delivery time, message), FIFO —
        # delivery times are nondecreasing by construction (FIFO clamp).
        self._pending: Deque[Tuple[float, Message]] = deque()
        self._flush_scheduled = False
        # Telemetry hook: called with the link's in-flight depth after
        # each send.  Wired by the network only when telemetry is
        # enabled, so the off path costs one ``is not None`` check.
        self.depth_probe: Optional[Callable[[int], None]] = None

    @property
    def name(self) -> str:
        """Human-readable link identifier ``source->target``."""
        return "{}->{}".format(self.source, self.target)

    def send(self, message: Message) -> None:
        """Queue *message* for delivery after the link latency.

        The traversal is recorded in the trace at send time (this is what
        the message-count experiments tally); dropped messages are still
        counted as sent, matching how a real system would consume network
        bandwidth before the loss.
        """
        self.sent_count += 1
        now = self.simulator.now
        if self.depth_probe is not None:
            self.depth_probe(self.sent_count - self.delivered_count - self.dropped_count)
        if self.trace is not None:
            self.trace.record_link(now, self.source, self.target, message)
        copies = 1
        if self.fault_model is not None:
            drop_reason, copies = self.fault_model.decide(self.source, self.target, now)
            if drop_reason is not None:
                self.dropped_count += 1
                if self.trace is not None:
                    self.trace.record_drop(now, self.source, self.target, message, drop_reason)
                return
        for _ in range(copies):
            delay = self.latency.sample()
            delivery_time = max(self.simulator.now + delay, self._last_delivery_time)
            self._last_delivery_time = delivery_time
            self._pending.append((delivery_time, message))
            if not self._flush_scheduled:
                # The queue was empty, so this delivery time is the
                # earliest pending one; later sends can only append
                # later-or-equal times (FIFO clamp), so the armed flush
                # time stays the minimum until it fires.
                self._flush_scheduled = True
                self.simulator.schedule_at(
                    delivery_time,
                    self._on_flush,
                    label="flush {}".format(self.name),
                )

    def _on_flush(self) -> None:
        """Deliver every pending message whose time has come, then re-arm."""
        self.flush_count += 1
        now = self.simulator.now
        pending = self._pending
        # Collect the due run first: delivery callbacks only ever send on
        # *other* links (a broker never sends on its own incoming link),
        # so the queue cannot grow mid-run and the split is safe.
        due: List[Message] = []
        while pending and pending[0][0] <= now:
            due.append(pending.popleft()[1])
        self.delivered_count += len(due)
        for message in due:
            self._deliver(message, self)
        if pending:
            self.simulator.schedule_at(
                pending[0][0], self._on_flush, label="flush {}".format(self.name)
            )
        else:
            self._flush_scheduled = False

    def pending_count(self) -> int:
        """Number of messages currently on the wire."""
        return len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Link({})".format(self.name)
