"""The recovery journal as one buffer of frames, on both stores.

A :class:`~repro.broker.recovery.RecoveryStore` keeps its retained log
as the journal frames :class:`~repro.broker.recovery.DiskRecoveryStore`
writes to ``journal.log`` — payload ``[sequence, origin, entry]`` behind
a 4-byte length — plus the first retained sequence number.  The entry's
filter is a number: the first record that carries a filter defines it,
``[number, filter]``, and later records write the number alone.
Whatever mix of appends, snapshots and (disk) reopens produced it, the
log must hand back exactly the records past the last snapshot, and cost
what it stores.
"""

import json
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
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

#: Journaled entries that carry a filter, which the journal numbers.
filtered_entries = st.one_of(
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
)

#: Journaled entries: admin and state-changing mobility messages.
log_entries = st.one_of(filtered_entries, location_dependent_subscribes())

operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), subjects, log_entries),
        # Cover this fraction of the records appended since the last snapshot.
        st.tuples(st.just("snapshot"), st.floats(0, 1)),
        st.tuples(st.just("reopen")),
    ),
    max_size=20,
)


def _dumps(value):
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def _payload(sequence, origin, wire, numbers):
    """The specification of a frame payload: ``json.dumps`` of the record
    ``[sequence, origin, entry]``.  The entry is the message's wire payload
    with its ``filter`` (if it has one) swapped for the filter's number in
    *numbers* (filter text -> number), or, where the filter is new, for
    ``[number, filter]`` with the next number, which is added."""
    entry = dict(wire)
    if "filter" in entry:
        text = _dumps(entry["filter"])
        if text in numbers:
            entry["filter"] = numbers[text]
        else:
            numbers[text] = len(numbers)
            entry["filter"] = [numbers[text], entry["filter"]]
    return _dumps([sequence, origin, entry]).encode("utf-8")


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
        appended = []  # (sequence, origin, entry wire, frame payload)
        numbers = {}
        covered = 0
        snapshot_bytes = 0
        try:
            for operation in operations:
                if operation[0] == "append":
                    _, origin, entry = operation
                    sequence = store.append(origin, entry)
                    wire = entry.to_wire()
                    payload = _payload(sequence, origin, wire, numbers)
                    appended.append((sequence, origin, wire, payload))
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
                    (record.sequence, record.origin, record.entry.to_wire())
                    for record in store.log_tail()
                ]
                assert tail == [item[:3] for item in expected]
                assert store.log_index == len(appended)
                assert store.log_size() == len(expected)
                # The byte oracle: every retained frame is the canonical
                # JSON of its record, as ``json.dumps`` writes it.
                assert store._frames == b"".join(_frame(item[3]) for item in expected)
                payloads = sum(len(item[3]) for item in expected)
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
#: about 420 B a record; as compact frames in one buffer it cost about
#: 225 B, of which 215 B were payload (CPython 3.11).  Every record here
#: carries a filter of its own, so each defines one, and the filter table
#: adds its number and slot: about 282 B.  The table also keeps each
#: filter's text, which the ``json`` encoder allocates, so it is not
#: counted here: with every frame of the allocation's traceback searched
#: for ``src/repro``, the record costs about 434 B (221 B before the table).
BYTES_PER_RECORD = 300
RECORDS = 2000

#: The same bound where 2,000 admin records share 50 filters, so all but
#: 50 write a filter number: about 131 B a record.  A journal that wrote
#: each record's filter in full cost 238 B.
BYTES_PER_SHARED_RECORD = 150
SHARED_FILTERS = 50


def _live_bytes(entries):
    """The store holding *entries*, and the live bytes under ``src/repro``."""
    tracemalloc.start()
    try:
        store = RecoveryStore("B1")
        for index, entry in enumerate(entries):
            store.append("client-{}".format(index % 7), entry)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    ours = snapshot.filter_traces([tracemalloc.Filter(True, "*/src/repro/*")])
    return store, sum(statistic.size for statistic in ours.statistics("filename"))


def test_a_journal_record_costs_its_frame():
    store, live = _live_bytes(
        Subscribe(
            Filter({"topic": "t{:04d}".format(index), "price": ("<", index)}),
            subject="client/s{}".format(index),
        )
        for index in range(RECORDS)
    )
    assert store.log_size() == RECORDS
    assert store.stored_bytes() <= live <= BYTES_PER_RECORD * RECORDS, live / RECORDS


def test_a_record_of_a_journaled_filter_costs_its_number():
    kinds = (Subscribe, Unsubscribe, Advertise, Unadvertise)
    shared = [
        Filter({"topic": "t{:04d}".format(index), "price": ("<", index)})
        for index in range(SHARED_FILTERS)
    ]
    store, live = _live_bytes(
        kinds[index % 4](shared[index % SHARED_FILTERS], subject="client/s{}".format(index))
        for index in range(RECORDS)
    )
    assert store.log_size() == RECORDS
    assert len(store._filter_numbers) == SHARED_FILTERS
    assert store.stored_bytes() <= live <= BYTES_PER_SHARED_RECORD * RECORDS, live / RECORDS


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
            store.append("client-{}".format(index % 7), entry)
    assert dumps.call_count == 0
    assert constraint_to_wire.call_count <= 10
    assert to_wire.call_count == 10
    assert store.log_size() == 1000


@pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
def test_an_oversized_record_is_refused_and_the_log_kept(disk, monkeypatch):
    """A record over the frame cap raises ``WireError`` before anything is
    written or defined: the log, its sequence, its filter table and the
    journal file are as before, and the records appended after it survive
    ``log_tail`` and a reopen."""
    monkeypatch.setattr(message_wire, "MAX_FRAME_PAYLOAD", 400)
    small = Subscribe(Filter({"topic": "t"}), subject="client/s")
    other = Subscribe(Filter({"topic": "u"}), subject="client/s")
    big = Subscribe(Filter({"topic": "x" * 400}), subject="client/s")
    with tempfile.TemporaryDirectory() as root:
        store = DiskRecoveryStore("B1", root) if disk else RecoveryStore("B1")
        try:
            store.append("c1", small)
            frames = bytes(store._frames)
            with pytest.raises(WireError, match="frame cap"):
                store.append("c1", big)
            assert (store.log_index, store.log_size(), bytes(store._frames)) == (1, 1, frames)
            assert len(store._filter_numbers) == 1
            if disk:
                with open(store._journal_path, "rb") as handle:
                    assert handle.read() == frames
            store.append("c1", other)
            store.append("c2", small)
            assert b'"filter":[1,' in store._frames and b'"filter":0,' in store._frames
            assert [record.sequence for record in store.log_tail()] == [1, 2, 3]
            assert store.log_size() == 3
            if disk:
                store.close()
                store = DiskRecoveryStore("B1", root)
                assert store.counters["disk_torn_records"] == 0
                assert store.counters["disk_records_recovered"] == 3
                assert [
                    (record.origin, record.entry) for record in store.log_tail()
                ] == [("c1", small), ("c1", other), ("c2", small)]
                assert store.log_index == 3
        finally:
            store.close()


@pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
def test_a_retained_record_names_a_filter_defined_before_the_snapshot(disk):
    """A snapshot that covers only the record defining a filter cuts the
    definition off the buffer, not off the table: the record past the cut
    that names the filter by number still decodes, before and after a
    reopen, and so does the next record of that filter."""
    news = Subscribe(Filter({"topic": "news"}), subject="c/s1")
    misc = Subscribe(Filter({"topic": "misc"}), subject="c/s2")
    again = Unsubscribe(Filter({"topic": "news"}), subject="c/s1")
    with tempfile.TemporaryDirectory() as root:
        store = DiskRecoveryStore("B1", root) if disk else RecoveryStore("B1")
        try:
            for entry in (news, misc, again):
                store.append("c", entry)
            store.install_snapshot(_snapshot(1))
            assert b'"filter":[0,' not in store._frames
            assert b'"filter":0,' in store._frames
            assert [record.entry for record in store.log_tail()] == [misc, again]
            if disk:
                store.close()
                store = DiskRecoveryStore("B1", root)
                assert store.counters["disk_torn_records"] == 0
                assert [record.entry for record in store.log_tail()] == [misc, again]
            store.append("c", news)
            assert store._frames.endswith(
                b'[4,"c",{"filter":0,"id":0,"subject":"c/s1",'
                b'"subscription_id":null,"type":"Subscribe"}]'
            )
            assert [record.entry for record in store.log_tail()] == [misc, again, news]
        finally:
            store.close()


#: A record field, by position, and the JSON type a valid record has there.
RECORD_TYPES = (int, str, dict)

#: The ways a record names a filter number it may not.
NUMBER_KINDS = [
    "undefined",
    "defined twice",
    "same filter again",
    "out of turn",
    "truncated definition",
]

#: A definition cut short: no filter, or a filter missing its operands.
TRUNCATED_DEFINITIONS = [
    [1],
    [1, {}],
    [1, {"kind": "filter", "constraints": [["a"]]}],
    [1, {"kind": "filter", "constraints": [["a", ["eq"]]]}],
]


@st.composite
def torn_record_payloads(draw):
    """``(good, bad, after)``: record 1, which defines number 0 where its
    entry has a filter; a record 2 that is truncated, garbage, of the wrong
    shape or names a filter number it may not; and a record 3 that would be
    valid right after record 1."""
    shape_kinds = ["truncated", "garbage", "drop", "extra", "retype", "not a list"]
    kind = draw(st.sampled_from(shape_kinds + NUMBER_KINDS))
    numbers = {}
    entry = draw(filtered_entries if kind in NUMBER_KINDS else log_entries)
    good = journal_record(1, "B2", entry, numbers)
    after = journal_record(3, "B2", draw(log_entries), dict(numbers))
    bad = journal_record(2, "B2", draw(log_entries), dict(numbers))
    if kind == "truncated":
        return good, bad[: draw(st.integers(0, len(bad) - 1))], after
    if kind == "garbage":
        return good, draw(st.binary(max_size=40)), after
    record = json.loads(good if kind in NUMBER_KINDS else bad)
    if kind in NUMBER_KINDS:
        record[0] = 2
        field = record[2]["filter"]
        if kind == "undefined":
            record[2]["filter"] = draw(st.sampled_from([1, 2, 1000, -1]))
        elif kind == "defined twice":
            record[2]["filter"] = [0, filter_wire.filter_to_wire(draw(filters))]
        elif kind == "same filter again":
            record[2]["filter"] = [1, field[1]]
        elif kind == "out of turn":
            record[2]["filter"] = [draw(st.sampled_from([2, 7, -1])), field[1]]
        else:
            record[2]["filter"] = draw(st.sampled_from(TRUNCATED_DEFINITIONS))
    elif kind == "drop":
        del record[draw(st.integers(0, 2))]
    elif kind == "extra":
        record.append(draw(st.sampled_from(RETYPED_VALUES)))
    elif kind == "retype":
        index = draw(st.integers(0, 2))
        wrong = [value for value in RETYPED_VALUES if type(value) is not RECORD_TYPES[index]]
        record[index] = draw(st.sampled_from(wrong + [{}, {"type": 1}] if index == 2 else wrong))
    else:
        record = draw(st.sampled_from([{"record": record}, record[2], "record", None]))
    return good, json.dumps(record).encode("utf-8"), after


#: Record 2 names filter -1, which a Python list would take for its last.
NEGATIVE_NUMBER = (
    b'[1,"B2",{"filter":[0,{"constraints":[],"kind":"filter"}],"id":0,"subject":"c/s",'
    b'"subscription_id":null,"type":"Subscribe"}]',
    b'[2,"B2",{"filter":-1,"id":0,"subject":"c/s","subscription_id":null,"type":"Subscribe"}]',
    b'[3,"B2",{"filter":0,"id":0,"subject":"c/s","subscription_id":null,"type":"Subscribe"}]',
)


@settings(max_examples=300, deadline=None)
@given(case=torn_record_payloads())
@example(case=NEGATIVE_NUMBER)
def test_a_malformed_record_reads_as_torn(case):
    """Decoding a bad record after a good one raises ``WireError`` and
    nothing else, and leaves the filter table as it was; the frame scan
    stops there: the records before it survive, torn is reported."""
    good, bad, after = case
    filters = []
    AdminLogRecord.decode(good, filters)
    defined = list(filters)
    with pytest.raises(WireError):
        AdminLogRecord.decode(bad, filters)
    assert filters == defined
    assert AdminLogRecord.decode(after, filters).sequence == 3
    records, torn = _scan_frames(_frame(good) + _frame(bad) + _frame(after), [])
    assert torn
    assert [record.sequence for _, record in records] == [1]


@settings(max_examples=300, deadline=None)
@given(data=mutated_payloads())
def test_a_mutated_entry_decodes_or_raises_wire_error(data):
    """An entry with a field dropped, retyped or wrapped, its filter written
    as the record's definition, either decodes, as the message codec decodes
    it, or raises ``WireError`` — nothing else."""
    entry = json.loads(data)
    if isinstance(entry, dict) and "filter" in entry:
        entry["filter"] = [0, entry["filter"]]
    try:
        record = AdminLogRecord.decode(json.dumps([1, "B2", entry]).encode("utf-8"))
    except WireError:
        return
    assert record.entry.to_wire() == decode_message(data).to_wire()
