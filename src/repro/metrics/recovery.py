"""Recovery metrics: what a broker crash cost and what the restart repaid.

The failure experiments (:mod:`repro.experiments.failure_schedule`) crash
a broker mid-workload, fail clients over or restart from the recovery
store, and then need three kinds of numbers:

* **loss attribution** — every message a fault consumed carries a
  :class:`~repro.runtime.trace.DropRecord` with a reason
  (``"loss"`` / ``"partition"`` / ``"broker-down"``);
  :func:`dropped_by_reason` splits a trace's losses along that axis so
  missing deliveries are attributed to the fault schedule instead of
  guessed at;
* **recovery cost** — how much state the restart had to rebuild
  (snapshot rows, journal records replayed) relative to the routing-table
  size, summarised in a :class:`RecoveryReport`;
* **delivery hygiene** — durable subscriptions promise at-least-once
  redelivery with client-side duplicate suppression; the report folds in
  the per-client ``duplicates_suppressed`` / ``gaps_detected`` counters
  (see :func:`repro.metrics.counters.delivery_dedup_breakdown`) and the
  count of matching notifications that were permanently lost (from
  :func:`repro.metrics.blackout.measure_node_loss_blackout`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.messages.base import MessageKind
from repro.runtime.trace import TraceRecorder


def dropped_by_reason(
    trace: TraceRecorder,
    kind: Optional[MessageKind] = None,
    until: Optional[float] = None,
    since: Optional[float] = None,
) -> Dict[str, int]:
    """Dropped-message counts per fault reason within a time window."""
    counts: Dict[str, int] = {}
    for record in trace.drops(kind=kind, until=until, since=since):
        counts[record.reason] = counts.get(record.reason, 0) + 1
    return counts


@dataclass
class RecoveryReport:
    """One broker outage, quantified.

    ``deliveries_lost`` counts matching notifications a durable
    subscriber never received; zero is the acceptance bar for the
    crash/restart scenarios (at-most-once *plain* subscriptions are
    allowed to lose what was in flight, so they are not counted here).
    """

    broker: str
    crash_time: float
    restart_time: Optional[float]
    routing_rows: int
    log_replayed: int
    dropped_while_down: Dict[str, int] = field(default_factory=dict)
    deliveries_lost: int = 0
    duplicates_suppressed: int = 0
    gaps_detected: int = 0
    redelivered: int = 0
    #: Per-subscription sequence ranges that were detected as gaps and
    #: never filled by a redelivery — *which* deliveries went missing,
    #: not just how many times a gap was noticed.
    gap_ranges: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    #: Retained in-flight forwards replayed to the takeover broker.
    retention_replayed: int = 0
    #: Storage-backend counters (``DiskRecoveryStore.counters``: bytes
    #: written, records recovered, torn records tolerated) — empty for
    #: the in-memory test double.
    store_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def outage_duration(self) -> Optional[float]:
        """Crash-to-restart interval in simulated time (``None``: never restarted)."""
        if self.restart_time is None:
            return None
        return self.restart_time - self.crash_time

    @property
    def durable_zero_loss(self) -> bool:
        """Did every durable subscriber end up with a gap-free history?"""
        return self.deliveries_lost == 0 and not self.gap_ranges

    @property
    def total_dropped(self) -> int:
        """Messages of all kinds consumed by faults during the outage."""
        return sum(self.dropped_while_down.values())

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict form (benchmark ``extra_info`` / JSON reports)."""
        return {
            "broker": self.broker,
            "crash_time": self.crash_time,
            "restart_time": self.restart_time,
            "outage_duration": self.outage_duration,
            "routing_rows": self.routing_rows,
            "log_replayed": self.log_replayed,
            "dropped_while_down": dict(self.dropped_while_down),
            "total_dropped": self.total_dropped,
            "deliveries_lost": self.deliveries_lost,
            "duplicates_suppressed": self.duplicates_suppressed,
            "gaps_detected": self.gaps_detected,
            "gap_ranges": {
                subscription_id: [list(pair) for pair in ranges]
                for subscription_id, ranges in sorted(self.gap_ranges.items())
            },
            "redelivered": self.redelivered,
            "retention_replayed": self.retention_replayed,
            "store_counters": dict(self.store_counters),
            "durable_zero_loss": self.durable_zero_loss,
        }


def recovery_report(
    broker: Any,
    trace: TraceRecorder,
    crash_time: float,
    restart_time: Optional[float] = None,
    clients: Iterable[Any] = (),
    deliveries_lost: int = 0,
    redelivered: int = 0,
    retention_replayed: Optional[int] = None,
) -> RecoveryReport:
    """Assemble a :class:`RecoveryReport` for one outage of *broker*.

    *clients* are the durable subscribers whose dedup counters should be
    folded in; *deliveries_lost* / *redelivered* come from the caller's
    trace analysis (e.g. ``measure_node_loss_blackout(...).lost_count``)
    because only the experiment knows which notifications *should* have
    matched.
    """
    from repro.metrics.counters import delivery_dedup_breakdown

    clients = tuple(clients)
    dedup = delivery_dedup_breakdown(clients)
    dropped = dropped_by_reason(
        trace, since=crash_time, until=restart_time
    )
    gap_ranges: Dict[str, List[Tuple[int, int]]] = {}
    for client in clients:
        for subscription_id in client.subscription_ids():
            unfilled = client.unfilled_gap_ranges(subscription_id)
            if unfilled:
                gap_ranges[subscription_id] = unfilled
    return RecoveryReport(
        broker=broker.name,
        crash_time=crash_time,
        restart_time=restart_time,
        routing_rows=broker.routing_table_size(),
        log_replayed=broker.counters.get("recovery_log_replayed", 0),
        dropped_while_down=dropped,
        deliveries_lost=deliveries_lost,
        duplicates_suppressed=dedup["duplicates_suppressed"],
        gaps_detected=dedup["gaps_detected"],
        gap_ranges=gap_ranges,
        redelivered=redelivered,
        retention_replayed=(
            broker.counters.get("retention_replayed", 0)
            if retention_replayed is None
            else retention_replayed
        ),
        # Only a disk store counts its I/O.
        store_counters=dict(getattr(broker.recovery, "counters", {})),
    )
