"""Disk-backed recovery store: durability, torn tails, cold restart.

The in-memory :class:`~repro.broker.recovery.RecoveryStore` survives a
*simulated* crash because the store object outlives the broker's wiped
volatile state.  :class:`~repro.broker.recovery.DiskRecoveryStore` has to
survive a *process* crash: these tests model one by opening a brand-new
store over the same directory (cold restart), and model kill-at-any-point
by truncating the journal and snapshot files at every possible byte
offset — recovery must land on the last complete fsync'd record, with no
duplicate replay and no invented state.
"""

import os

import pytest

from repro.broker.network import PubSubNetwork
from repro.broker.recovery import DiskRecoveryStore, encode_table
from repro.filters.filter import Filter
from repro.messages.admin import Subscribe
from repro.messages.wire import FRAME_HEADER_SIZE
from repro.topology.builders import line_topology


def _subscribe(index):
    return Subscribe(
        Filter({"topic": "t{}".format(index)}), subject="client/s{}".format(index)
    )


def _fill(store, count, start=1):
    for index in range(start, start + count):
        store.append("client", _subscribe(index))


def _sequences(store):
    return [record.sequence for record in store.log_tail()]


# ----------------------------------------------------------------------
# Round trip through the file system
# ----------------------------------------------------------------------
class TestDiskStoreRoundTrip:
    def test_journal_survives_reopen(self, tmp_path):
        store = DiskRecoveryStore("B1", str(tmp_path))
        _fill(store, 3)
        assert store.counters["disk_bytes_written"] > 0
        store.close()

        reopened = DiskRecoveryStore("B1", str(tmp_path))
        assert _sequences(reopened) == [1, 2, 3]
        assert reopened.counters["disk_records_recovered"] == 3
        assert reopened.counters["disk_torn_records"] == 0
        # Appends resume the sequence where the last fsync landed.
        assert reopened.append("client", _subscribe(4)) == 4
        reopened.close()

    def test_snapshot_survives_reopen_and_covers_prefix(self, tmp_path):
        network = PubSubNetwork(line_topology(2), latency=0.05)
        network.enable_recovery(
            "B1", store_factory=lambda name: DiskRecoveryStore(name, str(tmp_path))
        )
        client = network.add_client("client", "B1")
        client.subscribe({"topic": "news"}, subscription_id="s1")
        network.settle()
        network.snapshot_broker("B1")
        client.subscribe({"topic": "misc"}, subscription_id="s2")
        network.settle()
        store = network.broker("B1").recovery
        covered = store.snapshot().log_index
        network.close()

        reopened = DiskRecoveryStore("B1", str(tmp_path))
        snapshot = reopened.snapshot()
        assert snapshot is not None and snapshot.log_index == covered
        # Only the tail past the snapshot is mirrored for replay...
        assert all(sequence > covered for sequence in _sequences(reopened))
        # ...but the journal file still holds the full history (it is
        # truncated logically, never compacted), which is what makes the
        # torn-snapshot fallback below recoverable.
        assert reopened.counters["disk_records_recovered"] == 2
        reopened.close()

    def test_snapshot_replace_is_atomic(self, tmp_path):
        store = DiskRecoveryStore("B1", str(tmp_path))
        _fill(store, 2)
        store.close()
        network = PubSubNetwork(line_topology(2), latency=0.05)
        network.enable_recovery(
            "B1", store_factory=lambda name: DiskRecoveryStore(name, str(tmp_path))
        )
        network.snapshot_broker("B1")
        directory = network.broker("B1").recovery.directory
        assert DiskRecoveryStore.SNAPSHOT_NAME in os.listdir(directory)
        assert not any(name.endswith(".tmp") for name in os.listdir(directory))
        network.close()


# ----------------------------------------------------------------------
# Kill-at-every-point: torn journal and snapshot tails
# ----------------------------------------------------------------------
class TestTornFiles:
    def _frame_boundaries(self, raw):
        """Byte offsets at which a frame ends (i.e. a record is committed)."""
        boundaries, offset = [0], 0
        while offset < len(raw):
            length = int.from_bytes(raw[offset : offset + FRAME_HEADER_SIZE], "big")
            offset += FRAME_HEADER_SIZE + length
            boundaries.append(offset)
        return boundaries

    def test_journal_truncated_at_every_byte_recovers_last_complete_record(
        self, tmp_path
    ):
        seed = DiskRecoveryStore("B1", str(tmp_path / "seed"))
        _fill(seed, 4)
        journal_path = seed._journal_path
        seed.close()
        with open(journal_path, "rb") as handle:
            raw = handle.read()
        boundaries = self._frame_boundaries(raw)
        assert len(boundaries) == 5  # 4 records plus offset 0

        for cut in range(len(raw) + 1):
            root = tmp_path / "cut-{}".format(cut)
            directory = root / "B1"
            os.makedirs(str(directory))
            with open(str(directory / DiskRecoveryStore.JOURNAL_NAME), "wb") as handle:
                handle.write(raw[:cut])
            store = DiskRecoveryStore("B1", str(root))
            complete = sum(1 for boundary in boundaries[1:] if boundary <= cut)
            torn = cut not in boundaries
            # Recovery lands exactly on the last complete record: the
            # committed prefix replays once, the torn tail is discarded.
            assert _sequences(store) == list(range(1, complete + 1))
            assert store.counters["disk_torn_records"] == (1 if torn else 0)
            # The file itself is truncated back to the commit point, so
            # the next append starts clean and the next sequence number
            # continues without duplication.
            assert os.path.getsize(
                str(directory / DiskRecoveryStore.JOURNAL_NAME)
            ) == boundaries[complete]
            assert store.append("client", _subscribe(99)) == complete + 1
            assert _sequences(store) == list(range(1, complete + 2))
            store.close()

    def test_snapshot_truncated_at_every_point_falls_back_to_full_replay(
        self, tmp_path
    ):
        network = PubSubNetwork(line_topology(2), latency=0.05)
        network.enable_recovery(
            "B1", store_factory=lambda name: DiskRecoveryStore(name, str(tmp_path))
        )
        client = network.add_client("client", "B1")
        client.subscribe({"topic": "news"}, subscription_id="s1")
        network.settle()
        network.snapshot_broker("B1")
        client.subscribe({"topic": "misc"}, subscription_id="s2")
        network.settle()
        store = network.broker("B1").recovery
        snapshot_path = store._snapshot_path
        total_records = store.log_index
        network.close()
        with open(snapshot_path, "rb") as handle:
            snapshot_bytes = handle.read()

        for cut in range(0, len(snapshot_bytes), max(1, len(snapshot_bytes) // 40)):
            with open(snapshot_path, "wb") as handle:
                handle.write(snapshot_bytes[:cut])
            reopened = DiskRecoveryStore("B1", str(tmp_path))
            assert reopened.snapshot() is None
            assert reopened.counters["disk_torn_snapshots"] == 1
            # The journal was never physically compacted, so the whole
            # history is still there and replay-from-empty is possible.
            assert _sequences(reopened) == list(range(1, total_records + 1))
            reopened.close()

    def test_foreign_snapshot_is_ignored(self, tmp_path):
        first = DiskRecoveryStore("B1", str(tmp_path))
        _fill(first, 1)
        first.close()
        other_root = tmp_path / "other"
        network = PubSubNetwork(line_topology(2), latency=0.05)
        network.enable_recovery(
            "B2", store_factory=lambda name: DiskRecoveryStore(name, str(other_root))
        )
        network.snapshot_broker("B2")
        foreign = network.broker("B2").recovery._snapshot_path
        network.close()
        target = DiskRecoveryStore("B1", str(tmp_path))._snapshot_path
        with open(foreign, "rb") as src, open(target, "wb") as dst:
            dst.write(src.read())

        reopened = DiskRecoveryStore("B1", str(tmp_path))
        assert reopened.snapshot() is None
        assert reopened.counters["disk_torn_snapshots"] == 1
        assert _sequences(reopened) == [1]
        reopened.close()


# ----------------------------------------------------------------------
# Cold restart: a new process opens the directory and rebuilds the broker
# ----------------------------------------------------------------------
def _run_traffic(tmp_path, snapshot=False):
    network = PubSubNetwork(line_topology(3), latency=0.05)
    network.enable_recovery(
        store_factory=lambda name: DiskRecoveryStore(name, str(tmp_path))
    )
    producer = network.add_client("producer", "B3")
    producer.advertise({"topic": "news"})
    consumer = network.add_client("consumer", "B1")
    consumer.subscribe({"topic": "news"}, subscription_id="s1", durable=True)
    network.settle()
    if snapshot:
        network.snapshot_broker("B2")
    extra = network.add_client("extra", "B1")
    extra.subscribe({"topic": "misc"}, subscription_id="s2")
    network.settle()
    tables = (
        encode_table(network.broker("B2").subscription_table),
        encode_table(network.broker("B2").advertisement_table),
    )
    network.close()
    return tables


@pytest.mark.parametrize("snapshot", [False, True])
def test_cold_restart_rebuilds_identical_tables(tmp_path, snapshot):
    """A fresh process + fresh store over the same directory recovers B2.

    ``snapshot=False`` is the snapshot-less cold restart regression:
    ``RecoveryStore.snapshot()`` returns ``None`` and ``Broker.restart``
    must replay the *full* journal from empty tables.
    """
    expected_tables = _run_traffic(tmp_path, snapshot=snapshot)

    # A brand-new network (fresh broker objects, empty tables) standing
    # in for the restarted process; its stores recover from the files.
    network = PubSubNetwork(line_topology(3), latency=0.05)
    network.enable_recovery(
        store_factory=lambda name: DiskRecoveryStore(name, str(tmp_path))
    )
    broker = network.broker("B2")
    if snapshot:
        assert broker.recovery.snapshot() is not None
    else:
        assert broker.recovery.snapshot() is None
    broker.crash()
    replayed = broker.restart()
    assert replayed == broker.recovery.log_size()
    recovered = (
        encode_table(broker.subscription_table),
        encode_table(broker.advertisement_table),
    )
    assert recovered == expected_tables
    network.close()


def test_snapshotless_inmemory_restart_replays_full_journal():
    """Satellite regression: ``snapshot() is None`` on the default store."""
    network = PubSubNetwork(line_topology(2), latency=0.05)
    network.enable_recovery("B1")
    client = network.add_client("client", "B1")
    client.subscribe({"topic": "news"}, subscription_id="s1")
    client.subscribe({"topic": "misc"}, subscription_id="s2")
    network.settle()
    broker = network.broker("B1")
    before = encode_table(broker.subscription_table)
    assert broker.recovery.snapshot() is None
    broker.crash()
    assert encode_table(broker.subscription_table) != before
    assert broker.restart() == broker.recovery.log_size() > 0
    assert encode_table(broker.subscription_table) == before
    network.close()
