"""Blackout analysis (Figure 3).

Figure 3a of the paper shows the *blackout period* after (re-)subscribing
with simple routing: it takes roughly ``t_d`` for the subscription to
reach a producer and another ``t_d`` for the first matching notification
to travel back, so notifications published in a window of about ``2·t_d``
around the subscription time are never delivered.  Figure 3b shows that
flooding with client-side filtering has no such blackout (events published
as early as ``t_sub - t_d`` still arrive).

:func:`measure_blackout` quantifies the effect from a trace: which of the
matching notifications published around the subscription time were
delivered, and how long after subscribing the first delivery happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.filters.filter import Filter
from repro.runtime.trace import TraceRecorder

Identity = Tuple[str, int]


@dataclass
class BlackoutReport:
    """Delivery behaviour around one subscription instant."""

    subscribe_time: float
    matching_published: List[Tuple[float, Identity]]
    delivered: Set[Identity]
    first_delivery_time: Optional[float]

    @property
    def missed(self) -> List[Tuple[float, Identity]]:
        """Matching notifications (publish time, identity) never delivered."""
        return [
            (t, identity)
            for t, identity in self.matching_published
            if identity not in self.delivered
        ]

    @property
    def missed_count(self) -> int:
        """Number of matching notifications that were never delivered."""
        return len(self.missed)

    @property
    def blackout_duration(self) -> Optional[float]:
        """Time from subscribing until the first delivery (``None`` if nothing arrived)."""
        if self.first_delivery_time is None:
            return None
        return max(0.0, self.first_delivery_time - self.subscribe_time)


@dataclass
class NodeLossBlackout:
    """Delivery disruption around one broker outage window.

    Reuses the Figure-3 blackout machinery, but anchored on a *crash*
    instead of a subscription: which matching notifications published
    while (and shortly after) a broker was down reached the subscriber.
    """

    crash_time: float
    restore_time: Optional[float]
    report: BlackoutReport

    @property
    def lost(self) -> List[Tuple[float, Identity]]:
        """Matching notifications published at/after the crash, never delivered."""
        return [(t, identity) for t, identity in self.report.missed if t >= self.crash_time]

    @property
    def lost_count(self) -> int:
        """Number of matching notifications lost to the outage."""
        return len(self.lost)


def measure_node_loss_blackout(
    trace: TraceRecorder,
    client_id: str,
    filter_: Filter,
    crash_time: float,
    restore_time: Optional[float] = None,
    window_end: Optional[float] = None,
    subscription_id: Optional[str] = None,
) -> NodeLossBlackout:
    """Measure delivery disruption caused by a broker outage.

    Considers matching notifications published from *crash_time* up to
    *window_end* (default: whole trace) and checks which ones reached
    *client_id*.  *restore_time* (the restart instant, if any) is carried
    through for reporting.
    """
    report = measure_blackout(
        trace,
        client_id,
        filter_,
        subscribe_time=crash_time,
        window_start=crash_time,
        window_end=window_end,
        subscription_id=subscription_id,
    )
    return NodeLossBlackout(crash_time=crash_time, restore_time=restore_time, report=report)


def measure_blackout(
    trace: TraceRecorder,
    client_id: str,
    filter_: Filter,
    subscribe_time: float,
    window_start: Optional[float] = None,
    window_end: Optional[float] = None,
    subscription_id: Optional[str] = None,
) -> BlackoutReport:
    """Measure the blackout around one subscription instant.

    *window_start* / *window_end* bound the publications considered
    (default: the whole trace).
    """
    matching: List[Tuple[float, Identity]] = []
    for record in trace.publish_records:
        if window_start is not None and record.time < window_start:
            continue
        if window_end is not None and record.time > window_end:
            continue
        if filter_.matches(record.notification.attributes):
            matching.append((record.time, record.identity))
    matching.sort()

    delivered: Set[Identity] = set()
    first_delivery: Optional[float] = None
    for record in trace.deliveries_for(client_id):
        if subscription_id is not None and record.subscription_id != subscription_id:
            continue
        delivered.add(record.identity)
        if first_delivery is None or record.time < first_delivery:
            first_delivery = record.time

    return BlackoutReport(
        subscribe_time=subscribe_time,
        matching_published=matching,
        delivered=delivered,
        first_delivery_time=first_delivery,
    )
