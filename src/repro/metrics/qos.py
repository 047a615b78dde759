"""Quality-of-service checkers.

The physical-mobility requirements of Section 3.2:

* **Completeness** — "despite intermittent disconnects, the pub/sub
  middleware delivers all notifications for a client eventually".
* **No duplicates** — implicit in the relocation protocol's merge of the
  virtual and actual client ("no notification is lost or delivered twice",
  Section 4.1).
* **Ordering** — sender-FIFO ordering end to end.

For logical mobility, Figure 4 defines the required behaviour via epochs:
a notification must be delivered iff it matches the location-dependent
subscription evaluated at the location the client holds when the
notification *would have arrived under flooding*.  The checker here
compares against a reference delivery set computed from the publish
records, a location timeline and a delivery-delay estimate (or, in
integration tests, against an actual flooding run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.filters.filter import Filter
from repro.runtime.trace import PublishRecord, TraceRecorder

Identity = Tuple[str, int]


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------


@dataclass
class CompletenessReport:
    """Result of a completeness check."""

    expected: Set[Identity]
    delivered: Set[Identity]

    @property
    def missing(self) -> Set[Identity]:
        """Expected notifications that were never delivered."""
        return self.expected - self.delivered

    @property
    def unexpected(self) -> Set[Identity]:
        """Delivered notifications that were not expected."""
        return self.delivered - self.expected

    @property
    def complete(self) -> bool:
        """``True`` when nothing expected is missing."""
        return not self.missing

    @property
    def exact(self) -> bool:
        """``True`` when delivered set equals the expected set exactly."""
        return self.expected == self.delivered

    def describe(self) -> str:
        """Short human-readable summary."""
        return "CompletenessReport(expected={}, delivered={}, missing={}, unexpected={})".format(
            len(self.expected), len(self.delivered), len(self.missing), len(self.unexpected)
        )


def expected_identities(
    publishes: Iterable[PublishRecord],
    filter_: Filter,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Set[Identity]:
    """Identities of published notifications matching *filter_* in a time window."""
    out: Set[Identity] = set()
    for record in publishes:
        if since is not None and record.time < since:
            continue
        if until is not None and record.time > until:
            continue
        if filter_.matches(record.notification.attributes):
            out.add(record.identity)
    return out


def check_completeness(
    trace: TraceRecorder,
    client_id: str,
    filter_: Filter,
    subscription_id: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> CompletenessReport:
    """Compare what a client should have received against what it did receive."""
    expected = expected_identities(trace.publish_records, filter_, since=since, until=until)
    delivered = {
        record.identity
        for record in trace.deliveries_for(client_id)
        if subscription_id is None or record.subscription_id == subscription_id
    }
    return CompletenessReport(expected=expected, delivered=delivered)


# ---------------------------------------------------------------------------
# Duplicates
# ---------------------------------------------------------------------------


@dataclass
class DuplicateReport:
    """Result of a duplicate-delivery check."""

    duplicates: Dict[Identity, int]

    @property
    def clean(self) -> bool:
        """``True`` when no notification was delivered more than once."""
        return not self.duplicates

    @property
    def duplicate_count(self) -> int:
        """Total number of extra deliveries beyond the first."""
        return sum(count - 1 for count in self.duplicates.values())


def check_no_duplicates(
    trace: TraceRecorder,
    client_id: str,
    subscription_id: Optional[str] = None,
) -> DuplicateReport:
    """Count notifications delivered more than once to one subscription."""
    counts: Dict[Identity, int] = {}
    for record in trace.deliveries_for(client_id):
        if subscription_id is not None and record.subscription_id != subscription_id:
            continue
        counts[record.identity] = counts.get(record.identity, 0) + 1
    duplicates = {identity: count for identity, count in counts.items() if count > 1}
    return DuplicateReport(duplicates=duplicates)


# ---------------------------------------------------------------------------
# Sender FIFO ordering
# ---------------------------------------------------------------------------


@dataclass
class FifoReport:
    """Result of a sender-FIFO ordering check."""

    violations: List[Tuple[str, int, int]]  # (publisher, earlier_seq_delivered_after, later_seq)

    @property
    def ordered(self) -> bool:
        """``True`` when, per publisher, deliveries respect publication order."""
        return not self.violations


def check_fifo(
    trace: TraceRecorder,
    client_id: str,
    subscription_id: Optional[str] = None,
) -> FifoReport:
    """Verify per-publisher FIFO order of deliveries to one client."""
    last_seen: Dict[str, int] = {}
    violations: List[Tuple[str, int, int]] = []
    for record in trace.deliveries_for(client_id):
        if subscription_id is not None and record.subscription_id != subscription_id:
            continue
        previous = last_seen.get(record.publisher, 0)
        if record.publisher_seq < previous:
            violations.append((record.publisher, previous, record.publisher_seq))
        else:
            last_seen[record.publisher] = record.publisher_seq
    return FifoReport(violations=violations)


# ---------------------------------------------------------------------------
# Epoch semantics for logical mobility (Figure 4)
# ---------------------------------------------------------------------------


@dataclass
class EpochReport:
    """Result of comparing a run against the flooding reference semantics."""

    expected: Set[Identity]
    delivered: Set[Identity]

    @property
    def missing(self) -> Set[Identity]:
        """Notifications flooding would have delivered but the run did not."""
        return self.expected - self.delivered

    @property
    def spurious(self) -> Set[Identity]:
        """Notifications delivered although flooding would not have delivered them."""
        return self.delivered - self.expected

    @property
    def matches_flooding(self) -> bool:
        """``True`` when the run delivered exactly the flooding reference set."""
        return self.expected == self.delivered


class LocationTimeline:
    """The client's location as a step function of time.

    Built from ``(time, location)`` change points; the location at time
    ``t`` is the one declared by the latest change point not after ``t``.
    """

    def __init__(self, changes: Sequence[Tuple[float, str]]) -> None:
        if not changes:
            raise ValueError("a location timeline needs at least one change point")
        self._changes = sorted(changes, key=lambda item: item[0])

    def location_at(self, time: float) -> str:
        """The client's location at simulated time *time*."""
        current = self._changes[0][1]
        for change_time, location in self._changes:
            if change_time <= time:
                current = location
            else:
                break
        return current

    def epochs(self) -> List[Tuple[float, str]]:
        """The raw change points (epoch borders of Figure 4)."""
        return list(self._changes)


def flooding_reference_set(
    publishes: Iterable[PublishRecord],
    base_filter: Filter,
    location_attribute: str,
    timeline: LocationTimeline,
    myloc: Any,
    delivery_delay: float,
) -> Set[Identity]:
    """The notifications flooding-with-client-side-filtering would deliver.

    *myloc* is a callable ``myloc(location) -> set of locations`` (usually
    ``lambda loc: ploc(loc, vicinity)``); a published notification is
    expected iff its location attribute lies in ``myloc`` of the client's
    location at the time the notification would reach the client under
    flooding (publish time plus *delivery_delay*).
    """
    expected: Set[Identity] = set()
    for record in publishes:
        attributes = record.notification.attributes
        if not base_filter.matches(attributes):
            continue
        location_value = attributes.get(location_attribute)
        if location_value is None:
            continue
        arrival = record.time + delivery_delay
        client_location = timeline.location_at(arrival)
        if location_value in myloc(client_location):
            expected.add(record.identity)
    return expected


def check_epoch_semantics(
    trace: TraceRecorder,
    client_id: str,
    base_filter: Filter,
    location_attribute: str,
    timeline: LocationTimeline,
    myloc: Any,
    delivery_delay: float,
    subscription_id: Optional[str] = None,
) -> EpochReport:
    """Compare a logical-mobility run against the flooding reference (Figure 4)."""
    expected = flooding_reference_set(
        trace.publish_records, base_filter, location_attribute, timeline, myloc, delivery_delay
    )
    delivered = {
        record.identity
        for record in trace.deliveries_for(client_id)
        if subscription_id is None or record.subscription_id == subscription_id
    }
    return EpochReport(expected=expected, delivered=delivered)
