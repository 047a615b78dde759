"""Failure-schedule scenario family: crashes, takeovers and partitions.

The paper's model is failure-free; this scenario family probes what the
reproduction adds on top of it — broker crash/restart with routing-state
recovery (:mod:`repro.broker.recovery`), durable subscriptions, and
deterministic fault schedules (:class:`repro.runtime.faults.FaultModel`).
Two scenarios:

* **crash/restart** (:func:`run_crash_restart`) — a durable subscriber's
  border broker goes dark mid-workload.  Nobody scripts the takeover:
  the heartbeat/lease failure detector
  (:class:`repro.broker.network.FailureDetector`) observes the missed
  leases and the detecting neighbour adopts the orphaned clients,
  replaying its retained in-flight forwarding window so notifications
  that died *inside* the crashed broker still reach the durable
  subscribers.  The broker then restarts from snapshot + journal replay
  with byte-identical routing tables and the clients re-home through the
  ordinary relocation protocol.  The acceptance bar: the crash is
  *detected* (not assumed), no durable subscriber permanently loses a
  matching notification — including the publish round fired while the
  frames to the dead broker were still in flight — no duplicates reach
  the application, and the recovered tables equal the pre-crash ones
  byte for byte.  With ``FailureScheduleConfig.storage_dir`` set the
  recovery stores are disk-backed
  (:class:`repro.broker.recovery.DiskRecoveryStore`); the report must
  not change.
* **partition window** (:func:`run_partition`) — a scheduled link-down
  window silently eats notifications in flight to a *plain* (at-most-
  once) subscriber.  The bar here is *attribution*, not zero loss: every
  missing delivery must be explained by a ``"partition"`` drop record in
  the trace, none guessed.

``run()`` executes both and is what the experiment runner reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.broker.base import BrokerConfig
from repro.broker.recovery import DiskRecoveryStore, RecoveryStore, encode_table
from repro.experiments.backends import Backend, build_network
from repro.filters.filter import Filter
from repro.messages.base import MessageKind
from repro.metrics.blackout import measure_node_loss_blackout
from repro.metrics.qos import check_completeness, check_fifo, check_no_duplicates
from repro.metrics.recovery import RecoveryReport, dropped_by_reason, recovery_report
from repro.runtime.faults import FaultModel
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import line_topology


@dataclass
class FailureScheduleConfig:
    """Knobs shared by the scenario family."""

    latency: float = 0.05
    notifications_per_phase: int = 5
    #: Crash scenario: length of the broker line (crash at one end).
    brokers: int = 4
    #: Partition scenario: spacing between publishes, and which publish
    #: indexes the link-down window should straddle.
    publish_gap: float = 0.2
    partition_span: Tuple[int, int] = (2, 4)
    seed: int = 11
    #: Crash scenario: heartbeat beacon spacing and the lease a silent
    #: neighbour is allowed before it is suspected.  The detection
    #: window bounds the detector's tick schedule (both clocks consume
    #: a pre-scheduled tick list, so the schedule must be finite).
    heartbeat_interval: float = 0.5
    lease_timeout: float = 1.2
    detection_window: float = 2.0
    #: Per-neighbour in-flight retention window (unacked forwarded
    #: notifications a broker keeps for takeover replay).
    retention_window: int = 32
    #: Root directory for disk-backed recovery stores (``None``: the
    #: in-memory store).
    storage_dir: Optional[str] = None


@dataclass
class CrashRestartResult:
    """Outcome of the crash / takeover / restart / re-home walk-through."""

    delivered_total: int
    expected_total: int
    tables_identical: bool
    log_replayed: int
    complete: bool
    no_duplicates: bool
    fifo: bool
    counterpart_garbage_collected: bool
    detection_time: Optional[float]
    detected_by: Optional[str]
    report: RecoveryReport

    @property
    def detected(self) -> bool:
        """Did a lease observer (not the script) notice the crash?"""
        return self.detection_time is not None

    @property
    def durable_guarantees_hold(self) -> bool:
        """Detected crash, zero loss, exactly-once, FIFO, identical recovery."""
        return (
            self.detected
            and self.complete
            and self.no_duplicates
            and self.fifo
            and self.tables_identical
            and self.report.durable_zero_loss
            and self.counterpart_garbage_collected
        )

    def format_text(self) -> str:
        """Render the walk-through summary."""
        if self.detected:
            detection = "by {} at t={:.3f}".format(self.detected_by, self.detection_time)
        else:
            detection = "never observed"
        lines = [
            "crash/restart with durable subscribers",
            "  delivered / expected:        {} / {}".format(
                self.delivered_total, self.expected_total
            ),
            "  crash detected:              {}".format(detection),
            "  journal records replayed:    {}".format(self.log_replayed),
            "  recovered tables identical:  {}".format(self.tables_identical),
            "  retained forwards replayed:  {}".format(self.report.retention_replayed),
            "  durable deliveries lost:     {}".format(self.report.deliveries_lost),
            "  duplicates suppressed:       {}".format(self.report.duplicates_suppressed),
            "  sequence gaps detected:      {}".format(self.report.gaps_detected),
            "  unfilled gap ranges:         {}".format(self.report.gap_ranges),
            "  dropped while down:          {}".format(self.report.dropped_while_down),
            "  completeness:                {}".format(self.complete),
            "  no duplicates:               {}".format(self.no_duplicates),
            "  sender FIFO:                 {}".format(self.fifo),
            "  counterparts collected:      {}".format(self.counterpart_garbage_collected),
        ]
        return "\n".join(lines)


@dataclass
class PartitionResult:
    """Outcome of the scheduled link-partition scenario."""

    published: int
    delivered: int
    lost: int
    dropped: Dict[str, int] = field(default_factory=dict)

    @property
    def loss_fully_attributed(self) -> bool:
        """Some loss occurred and every bit of it has a partition drop record."""
        return self.lost > 0 and self.lost == self.dropped.get("partition", 0)

    def format_text(self) -> str:
        """Render the attribution summary."""
        lines = [
            "scheduled link partition (plain subscriber)",
            "  published / delivered:       {} / {}".format(self.published, self.delivered),
            "  lost:                        {}".format(self.lost),
            "  drops by reason:             {}".format(self.dropped),
            "  loss fully attributed:       {}".format(self.loss_fully_attributed),
        ]
        return "\n".join(lines)


@dataclass
class FailureScheduleResult:
    """Both scenarios of the family."""

    crash_restart: CrashRestartResult
    partition: PartitionResult

    @property
    def passed(self) -> bool:
        """Both scenarios meet their acceptance bars."""
        return (
            self.crash_restart.durable_guarantees_hold
            and self.partition.loss_fully_attributed
        )

    def format_text(self) -> str:
        """Render both scenario summaries."""
        return self.crash_restart.format_text() + "\n" + self.partition.format_text()


def run_crash_restart(
    config: FailureScheduleConfig = FailureScheduleConfig(),
    backend: Backend = Backend(),
) -> CrashRestartResult:
    """Crash a border broker mid-workload; detect, fail over, restart, re-home."""
    edge = "B{}".format(config.brokers)
    network = build_network(
        line_topology(config.brokers),
        strategy="covering",
        latency=config.latency,
        backend=backend,
        config=BrokerConfig(forward_retention=config.retention_window),
    )
    store_factory: Optional[Callable[[str], RecoveryStore]] = None
    if config.storage_dir is not None:
        storage_dir = config.storage_dir
        store_factory = lambda name: DiskRecoveryStore(name, storage_dir)  # noqa: E731
    network.enable_recovery(store_factory=store_factory)

    producer = network.add_client("producer", edge)
    producer.advertise({"topic": "news"})
    consumer = network.add_client("consumer", "B1")
    consumer.subscribe({"topic": "news"}, subscription_id="s1", durable=True)
    network.settle()

    # Checkpoint now, then add more admin traffic so the restart has to
    # replay a journal *tail* on top of the snapshot.
    network.snapshot_broker("B1")
    late = network.add_client("late", "B1")
    late.subscribe({"topic": "news"}, subscription_id="s2", durable=True)
    network.settle()

    def publish_round(tag: str) -> None:
        for index in range(config.notifications_per_phase):
            producer.publish({"topic": "news", "phase": tag, "index": index})

    publish_round("before-crash")
    network.settle()

    border = network.broker("B1")
    pre_tables = (
        encode_table(border.subscription_table),
        encode_table(border.advertisement_table),
    )
    # Nobody scripts the takeover from here on: the lease detector has
    # to notice the silence.  The publish round fired immediately after
    # the crash is still in flight toward the dead broker — those
    # notifications die inside it, and only the upstream neighbour's
    # retained forwarding window can bring them back at takeover.
    detector = network.enable_failure_detection(
        config.heartbeat_interval,
        config.lease_timeout,
        until=network.now + config.detection_window,
    )
    crash_time = network.now
    network.crash_broker("B1")
    publish_round("in-flight")
    network.settle()

    publish_round("while-down")
    network.settle()

    restart_time = network.now
    network.restart_broker("B1")
    network.settle()
    tables_identical = pre_tables == (
        encode_table(border.subscription_table),
        encode_table(border.advertisement_table),
    )

    consumer.move_to(border)
    late.move_to(border)
    network.settle()
    publish_round("after-restart")
    network.settle()

    filter_ = Filter({"topic": "news"})
    complete = all(
        check_completeness(network.trace, client_id, filter_).complete
        for client_id in ("consumer", "late")
    )
    no_duplicates = all(
        check_no_duplicates(network.trace, client_id).clean
        for client_id in ("consumer", "late")
    )
    fifo = all(
        check_fifo(network.trace, client_id).ordered for client_id in ("consumer", "late")
    )
    node_loss = measure_node_loss_blackout(
        network.trace, "consumer", filter_, crash_time, restore_time=restart_time
    )
    redelivered = sum(
        record.replayed
        for broker in network.brokers.values()
        for record in broker.physical.relocation_records
    )
    retention_replayed = sum(
        broker.counters.get("retention_replayed", 0)
        for broker in network.brokers.values()
    )
    report = recovery_report(
        border,
        network.trace,
        crash_time,
        restart_time,
        clients=(consumer, late),
        deliveries_lost=node_loss.lost_count,
        redelivered=redelivered,
        retention_replayed=retention_replayed,
    )
    counterparts_collected = not any(
        broker.physical.counterparts for broker in network.brokers.values()
    )
    detection_time: Optional[float] = None
    detected_by: Optional[str] = None
    for time, suspect, observer in detector.detections:
        if suspect == "B1":
            detection_time, detected_by = time, observer
            break
    network.close()
    return CrashRestartResult(
        delivered_total=len(consumer.received) + len(late.received),
        expected_total=2 * 4 * config.notifications_per_phase,
        tables_identical=tables_identical,
        log_replayed=report.log_replayed,
        complete=complete,
        no_duplicates=no_duplicates,
        fifo=fifo,
        counterpart_garbage_collected=counterparts_collected,
        detection_time=detection_time,
        detected_by=detected_by,
        report=report,
    )


def run_partition(
    config: FailureScheduleConfig = FailureScheduleConfig(),
    backend: Backend = Backend(),
) -> PartitionResult:
    """Drop notifications to a plain subscriber inside a scheduled window."""
    network = build_network(
        line_topology(3),
        strategy="covering",
        latency=config.latency,
        backend=backend,
    )
    fault = FaultModel(DeterministicRandom(config.seed))
    for link in network.links.values():
        link.fault_model = fault

    producer = network.add_client("producer", "B3")
    producer.advertise({"topic": "news"})
    consumer = network.add_client("consumer", "B1")
    consumer.subscribe({"topic": "news"})
    network.settle()

    # The window straddles publishes [start, stop): it opens once the
    # start-th publish is in flight on B2 -> B1 and closes before the
    # stop-th gets there.  The gap dominates the per-hop latency, so the
    # schedule is exact, but the verdict below never assumes it — loss is
    # counted from the trace and matched against the drop records.
    start, stop = config.partition_span
    t0 = network.now
    fault.partition(
        "B2",
        "B1",
        t0 + start * config.publish_gap,
        t0 + stop * config.publish_gap,
    )

    total = config.notifications_per_phase + stop
    for index in range(total):
        producer.publish({"topic": "news", "index": index})
        network.run_for(config.publish_gap)
    network.settle()

    delivered = len(consumer.received)
    dropped = dropped_by_reason(network.trace, kind=MessageKind.NOTIFICATION)
    network.close()
    return PartitionResult(
        published=total,
        delivered=delivered,
        lost=total - delivered,
        dropped=dropped,
    )


def run(
    config: FailureScheduleConfig = FailureScheduleConfig(),
    backend: Backend = Backend(),
) -> FailureScheduleResult:
    """Execute the whole scenario family."""
    return FailureScheduleResult(
        crash_restart=run_crash_restart(config, backend),
        partition=run_partition(config, backend),
    )

