"""The recovery journal as one buffer of frames, on both stores.

A :class:`~repro.broker.recovery.RecoveryStore` keeps its retained log
as the journal frames :class:`~repro.broker.recovery.DiskRecoveryStore`
writes to ``journal.log`` — payload ``[sequence, logged_at, origin,
entry]`` behind a 4-byte length — plus the first retained sequence
number.  Whatever mix of appends, snapshots and (disk) reopens produced
it, the log must hand back exactly the records past the last snapshot,
and cost what it stores.
"""

import json
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.recovery import (
    AdminLogRecord,
    DiskRecoveryStore,
    RecoveryStore,
    RoutingSnapshot,
    _scan_frames,
)
from repro.filters import wire as filter_wire
from repro.filters.filter import Filter
from repro.messages import wire as message_wire
from repro.messages.admin import Advertise, Subscribe, Unadvertise, Unsubscribe
from repro.messages.mobility import MovedSubscribe
from repro.messages.wire import WireError, decode_message, journal_record

from tests.messages.test_wire import (
    RETYPED_VALUES,
    _admin,
    filters,
    identifiers,
    location_dependent_subscribes,
    metas,
    mutated_payloads,
    subjects,
)

#: Journaled entries: admin and state-changing mobility messages.
log_entries = st.one_of(
    _admin(Subscribe),
    _admin(Unsubscribe),
    _admin(Advertise),
    _admin(Unadvertise),
    st.builds(
        MovedSubscribe,
        client_id=identifiers,
        subscription_id=identifiers,
        filter_=filters,
        last_sequence=st.integers(0, 10_000),
        new_border=identifiers,
        meta=metas,
    ),
    location_dependent_subscribes(),
)

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"), subjects, st.floats(0, 1e6, allow_nan=False), log_entries
        ),
        # Cover this fraction of the records appended since the last snapshot.
        st.tuples(st.just("snapshot"), st.floats(0, 1)),
        st.tuples(st.just("reopen")),
    ),
    max_size=20,
)


def _payload(sequence, origin, logged_at, wire):
    """The specification of a frame payload: ``json.dumps`` of the record."""
    return json.dumps(
        [sequence, logged_at, origin, wire], separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def _frame(payload):
    return len(payload).to_bytes(4, "big") + payload


def _snapshot(log_index):
    return RoutingSnapshot(
        broker="B1",
        taken_at=0.0,
        log_index=log_index,
        subscription_rows=(),
        subscription_row_seq=0,
        advertisement_rows=(),
        advertisement_row_seq=0,
        forwarded_subscriptions={},
        forwarded_advertisements={},
    )


@pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
@settings(max_examples=60, deadline=None)
@given(operations=operations)
def test_the_log_is_the_records_past_the_last_snapshot(disk, operations):
    with tempfile.TemporaryDirectory() as root:
        store = DiskRecoveryStore("B1", root) if disk else RecoveryStore("B1")
        appended = []  # (sequence, origin, logged_at, entry wire)
        covered = 0
        snapshot_bytes = 0
        try:
            for operation in operations:
                if operation[0] == "append":
                    _, origin, logged_at, entry = operation
                    sequence = store.append(origin, entry, logged_at)
                    appended.append((sequence, origin, logged_at, entry.to_wire()))
                elif operation[0] == "snapshot":
                    covered += round(operation[1] * (store.log_index - covered))
                    snapshot = _snapshot(covered)
                    store.install_snapshot(snapshot)
                    snapshot_bytes = len(snapshot.encode())
                elif disk:
                    store.close()
                    store = DiskRecoveryStore("B1", root)

                expected = [item for item in appended if item[0] > covered]
                tail = [
                    (record.sequence, record.origin, record.logged_at, record.entry.to_wire())
                    for record in store.log_tail()
                ]
                assert tail == expected
                assert store.log_index == len(appended)
                assert store.log_size() == len(expected)
                # The byte oracle: every retained frame is the canonical
                # JSON of its record, as ``json.dumps`` writes it.
                assert store._frames == b"".join(_frame(_payload(*item)) for item in expected)
                payloads = sum(len(_payload(*item)) for item in expected)
                assert store.stored_bytes() == snapshot_bytes + payloads
                if disk:
                    # The buffer mirrors journal.log: all of it until a
                    # snapshot cuts the covered prefix off the buffer.
                    with open(store._journal_path, "rb") as handle:
                        journal = handle.read()
                    assert journal.endswith(store._frames)
                    if not covered:
                        assert journal == store._frames
        finally:
            store.close()


#: Live bytes of one retained record, everything under ``src/repro``
#: counted.  With each record kept as its own canonical-JSON wire message
#: in a list of ``(sequence, bytes)`` tuples, the population below cost
#: about 420 B a record; as compact frames in one buffer it costs about
#: 225 B, of which 215 B are payload (CPython 3.11).
BYTES_PER_RECORD = 300
RECORDS = 2000


def test_a_journal_record_costs_its_frame():
    tracemalloc.start()
    try:
        store = RecoveryStore("B1")
        for index in range(RECORDS):
            entry = Subscribe(
                Filter({"topic": "t{:04d}".format(index), "price": ("<", index)}),
                subject="client/s{}".format(index),
            )
            store.append("client-{}".format(index % 7), entry, float(index))
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    assert store.log_size() == RECORDS
    ours = snapshot.filter_traces([tracemalloc.Filter(True, "*/src/repro/*")])
    live = sum(statistic.size for statistic in ours.statistics("filename"))
    assert store.stored_bytes() <= live <= BYTES_PER_RECORD * RECORDS, live / RECORDS


def test_admin_appends_encode_each_filter_once():
    """1,000 admin appends over 10 filters: no ``json.dumps`` (it builds an
    encoder per call), and each filter's constraints are put in wire form
    once, when its payload is first memoised.  Each filter object's text is
    rendered from that payload once too: ``filter_to_wire`` runs 10 times,
    not once per append.  An admin record's filter is put in wire form by
    the canonical renderer's call in :mod:`repro.messages.wire`, so that
    is the call counted."""
    kinds = (Subscribe, Unsubscribe, Advertise, Unadvertise)
    shared = [Filter({"topic": "t{}".format(index)}) for index in range(10)]
    store = RecoveryStore("B1")
    to_wire = mock.Mock(wraps=filter_wire.filter_to_wire)
    with mock.patch("json.dumps", wraps=json.dumps) as dumps, mock.patch.object(
        filter_wire, "constraint_to_wire", wraps=filter_wire.constraint_to_wire
    ) as constraint_to_wire, mock.patch.object(message_wire, "filter_to_wire", to_wire):
        for index in range(1000):
            entry = kinds[index % 4](shared[index % 10], subject="client/s{}".format(index))
            store.append("client-{}".format(index % 7), entry, float(index))
    assert dumps.call_count == 0
    assert constraint_to_wire.call_count <= 10
    assert to_wire.call_count == 10
    assert store.log_size() == 1000


@pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
def test_an_oversized_record_is_refused_and_the_log_kept(disk, monkeypatch):
    """A record over the frame cap raises ``WireError`` before anything is
    written: the log, its sequence and the journal file are as before, and
    the records appended after it survive ``log_tail`` and a reopen."""
    monkeypatch.setattr(message_wire, "MAX_FRAME_PAYLOAD", 400)
    small = Subscribe(Filter({"topic": "t"}), subject="client/s")
    big = Subscribe(Filter({"topic": "x" * 400}), subject="client/s")
    with tempfile.TemporaryDirectory() as root:
        store = DiskRecoveryStore("B1", root) if disk else RecoveryStore("B1")
        try:
            store.append("c1", small, 1.0)
            frames = bytes(store._frames)
            with pytest.raises(WireError, match="frame cap"):
                store.append("c1", big, 2.0)
            assert (store.log_index, store.log_size(), bytes(store._frames)) == (1, 1, frames)
            if disk:
                with open(store._journal_path, "rb") as handle:
                    assert handle.read() == frames
            store.append("c1", small, 3.0)
            store.append("c2", small, 4.0)
            assert [record.sequence for record in store.log_tail()] == [1, 2, 3]
            assert store.log_size() == 3
            if disk:
                store.close()
                store = DiskRecoveryStore("B1", root)
                assert store.counters["disk_torn_records"] == 0
                assert store.counters["disk_records_recovered"] == 3
                assert [record.logged_at for record in store.log_tail()] == [1.0, 3.0, 4.0]
                assert store.log_index == 3
        finally:
            store.close()


#: A record field, by position, and the JSON type a valid record has there.
RECORD_TYPES = (int, float, str, dict)


@st.composite
def torn_record_payloads(draw):
    """A journal record payload that is truncated, garbage or of the wrong shape."""
    good = journal_record(1, 0.5, "B2", draw(log_entries))
    kind = draw(st.sampled_from(["truncated", "garbage", "drop", "extra", "retype", "not a list"]))
    if kind == "truncated":
        return good[: draw(st.integers(0, len(good) - 1))]
    if kind == "garbage":
        return draw(st.binary(max_size=40))
    record = json.loads(good)
    if kind == "drop":
        del record[draw(st.integers(0, 3))]
    elif kind == "extra":
        record.append(draw(st.sampled_from(RETYPED_VALUES)))
    elif kind == "retype":
        index = draw(st.integers(0, 3))
        wrong = [value for value in RETYPED_VALUES if type(value) is not RECORD_TYPES[index]]
        record[index] = draw(st.sampled_from(wrong + [{}, {"type": 1}] if index == 3 else wrong))
    else:
        record = draw(st.sampled_from([{"record": record}, record[3], "record", None]))
    return json.dumps(record).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(bad=torn_record_payloads(), entry=log_entries)
def test_a_malformed_record_reads_as_torn(bad, entry):
    """Decoding a bad record raises ``WireError`` and nothing else, and the
    frame scan stops there: the records before it survive, torn is reported."""
    with pytest.raises(WireError):
        AdminLogRecord.decode(bad)
    good = journal_record(1, 0.5, "B2", entry)
    records, torn = _scan_frames(_frame(good) + _frame(bad) + _frame(good))
    assert torn
    assert [record.sequence for _, record in records] == [1]


@settings(max_examples=300, deadline=None)
@given(data=mutated_payloads())
def test_a_mutated_entry_decodes_or_raises_wire_error(data):
    """An entry with a field dropped, retyped or wrapped either decodes, as
    the message codec decodes it, or raises ``WireError`` — nothing else."""
    try:
        record = AdminLogRecord.decode(b'[1,0.5,"B2",' + data + b"]")
    except WireError:
        return
    assert record.entry.to_wire() == decode_message(data).to_wire()
