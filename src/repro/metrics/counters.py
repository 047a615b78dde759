"""Message counting (the measurement behind Figure 9).

Figure 9 of the paper plots the *cumulative total number of messages*
(notifications plus administrative messages) on all network links over
time, comparing flooding with the location-dependent-subscription
algorithm for two client speeds.  :func:`cumulative_message_series`
produces exactly such a series from a trace; :class:`MessageCounter`
offers the per-kind / per-link breakdowns used by tests and by the
routing ablation benchmark.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.messages.base import MessageKind
from repro.runtime.trace import TraceRecorder


@dataclass
class MessageBreakdown:
    """Message totals split by coarse kind."""

    notifications: int = 0
    admin: int = 0
    mobility: int = 0

    @property
    def total(self) -> int:
        """Sum over all kinds."""
        return self.notifications + self.admin + self.mobility


class MessageCounter:
    """Aggregations over the link records of one trace."""

    def __init__(self, trace: TraceRecorder) -> None:
        self.trace = trace

    def breakdown(
        self, until: Optional[float] = None, since: Optional[float] = None
    ) -> MessageBreakdown:
        """Totals per message kind within a time window."""
        result = MessageBreakdown()
        for message_class, count in self._per_class(until, since):
            if message_class.kind == MessageKind.NOTIFICATION:
                result.notifications += count
            elif message_class.kind == MessageKind.ADMIN:
                result.admin += count
            else:
                result.mobility += count
        return result

    def total(self, until: Optional[float] = None, since: Optional[float] = None) -> int:
        """Total number of link traversals within a time window."""
        return self.trace.count_link_messages(until=until, since=since)

    def per_link(self, until: Optional[float] = None) -> Dict[Tuple[str, str], int]:
        """Traversal counts per (source, target) link."""
        links = self.trace.link_columns
        counts = Counter(links.pair_ids[row] for row in self.trace.link_rows(until=until))
        return {links.pairs[pair_id]: count for pair_id, count in counts.items()}

    def per_message_type(self, until: Optional[float] = None) -> Dict[str, int]:
        """Traversal counts per concrete message class name."""
        counts: Counter = Counter()
        for message_class, count in self._per_class(until):
            counts[message_class.__name__] += count
        return dict(counts)

    def _per_class(
        self, until: Optional[float] = None, since: Optional[float] = None
    ) -> List[Tuple[type, int]]:
        """``(message class, traversals)`` within a time window, by first traversal."""
        links = self.trace.link_columns
        rows = self.trace.link_rows(until=until, since=since)
        counts = Counter(links.class_ids[row] for row in rows)
        return [(links.classes[class_id], count) for class_id, count in counts.items()]


def delivery_dedup_breakdown(clients: Iterable[Any]) -> Dict[str, int]:
    """Durable-delivery hygiene counters summed over *clients*.

    Durable subscriptions give at-least-once delivery; the client runtime
    turns that into exactly-once by suppressing sequence numbers it has
    already seen and counting (without masking) forward gaps.  This sums
    the per-client counters:

    * ``duplicates_suppressed`` — redeliveries dropped before the
      application callback;
    * ``gaps_detected`` — deliveries whose sequence jumped past the
      expected successor (each one an at-least-once violation unless the
      missing sequence is redelivered later).
    """
    out: Dict[str, int] = {"duplicates_suppressed": 0, "gaps_detected": 0}
    for client in clients:
        for name in out:
            out[name] += client.counters.get(name, 0)
    return out


def cumulative_message_series(
    trace: TraceRecorder,
    sample_times: Sequence[float],
    kind: Optional[MessageKind] = None,
) -> List[Tuple[float, int]]:
    """Cumulative message counts at the given sample times (Figure 9 series).

    Returns ``[(t, count_of_link_messages_up_to_t), ...]`` for each ``t``
    in *sample_times*.  The implementation sorts the link times once and
    bisects, so long traces with many sample points stay cheap.
    """
    times = trace.link_columns.times
    ordered = sorted(times[row] for row in trace.link_rows(kind=kind))
    return [(sample, bisect_right(ordered, sample)) for sample in sorted(sample_times)]


def messages_per_second(
    trace: TraceRecorder, horizon: float, bucket: float = 1.0
) -> List[Tuple[float, int]]:
    """Messages per *bucket*-second interval up to *horizon* (for rate plots)."""
    if bucket <= 0:
        raise ValueError("bucket width must be positive")
    buckets = int(horizon / bucket) + 1
    counts = [0] * buckets
    for time in trace.link_columns.times:
        if time > horizon:
            continue
        counts[int(time / bucket)] += 1
    return [(index * bucket, count) for index, count in enumerate(counts)]
