"""Unit tests for the physical-mobility state (counterparts and buffers)."""

import pytest

from repro.core.physical import RelocationBuffer, RelocationRecord, VirtualCounterpart
from repro.filters.filter import Filter
from repro.messages.notification import Notification


def make_notification(seq, **attrs):
    attributes = {"topic": "news"}
    attributes.update(attrs)
    return Notification(attributes, publisher="p", publisher_seq=seq)


class TestVirtualCounterpart:
    def test_buffering_assigns_consecutive_sequences(self):
        counterpart = VirtualCounterpart("C", "sub", Filter({"topic": "news"}), next_sequence=4)
        first = counterpart.buffer(make_notification(1))
        second = counterpart.buffer(make_notification(2))
        assert (first.sequence, second.sequence) == (4, 5)
        assert counterpart.next_sequence == 6
        assert counterpart.buffered_count() == 2
        assert counterpart.token == "C/sub"

    def test_replay_after_returns_suffix(self):
        counterpart = VirtualCounterpart("C", "sub", Filter({}), next_sequence=1)
        for seq in range(1, 6):
            counterpart.buffer(make_notification(seq))
        replayed = counterpart.replay_after(3)
        assert [s.sequence for s in replayed] == [4, 5]

    def test_replay_after_zero_returns_everything(self):
        counterpart = VirtualCounterpart("C", "sub", Filter({}), next_sequence=1)
        counterpart.buffer(make_notification(1))
        assert len(counterpart.replay_after(0)) == 1

    def test_bounded_buffer_drop_oldest(self):
        counterpart = VirtualCounterpart("C", "sub", Filter({}), next_sequence=1, max_buffer=2)
        for seq in range(1, 5):
            counterpart.buffer(make_notification(seq))
        assert counterpart.buffered_count() == 2
        assert counterpart.overflowed == 2
        replayed = counterpart.replay_after(0)
        assert [s.sequence for s in replayed] == [3, 4]

    def test_drain(self):
        counterpart = VirtualCounterpart("C", "sub", Filter({}), next_sequence=1)
        counterpart.buffer(make_notification(1))
        drained = counterpart.drain()
        assert len(drained) == 1
        assert counterpart.buffered_count() == 0

    def test_describe(self):
        counterpart = VirtualCounterpart("C", "sub", Filter({}), next_sequence=3)
        assert "C/sub" in counterpart.describe()


class TestRelocationBuffer:
    def test_flush_orders_replay_before_fresh(self):
        buffer_ = RelocationBuffer("C", "sub", last_sequence=2)
        fresh = make_notification(10)
        buffer_.hold(fresh)
        counterpart = VirtualCounterpart("C", "sub", Filter({}), next_sequence=3)
        replay = [counterpart.buffer(make_notification(seq)) for seq in (3, 4)]
        buffer_.accept_replay(replay)
        replayed, fresh_out = buffer_.flush()
        assert [s.sequence for s in replayed] == [3, 4]
        assert [n.publisher_seq for n in fresh_out] == [10]
        assert buffer_.complete

    def test_flush_deduplicates_by_identity(self):
        buffer_ = RelocationBuffer("C", "sub", last_sequence=0)
        shared = make_notification(5)
        buffer_.hold(shared)
        counterpart = VirtualCounterpart("C", "sub", Filter({}), next_sequence=1)
        buffer_.accept_replay([counterpart.buffer(shared)])
        replayed, fresh_out = buffer_.flush()
        assert len(replayed) == 1
        assert fresh_out == []

    def test_flush_deduplicates_repeated_fresh(self):
        buffer_ = RelocationBuffer("C", "sub", last_sequence=0)
        repeated = make_notification(1)
        buffer_.hold(repeated)
        buffer_.hold(repeated)
        replayed, fresh_out = buffer_.flush()
        assert replayed == []
        assert len(fresh_out) == 1

    def test_replay_sorted_even_if_received_out_of_order(self):
        buffer_ = RelocationBuffer("C", "sub", last_sequence=0)
        counterpart = VirtualCounterpart("C", "sub", Filter({}), next_sequence=1)
        first = counterpart.buffer(make_notification(1))
        second = counterpart.buffer(make_notification(2))
        buffer_.accept_replay([second, first])
        replayed, _ = buffer_.flush()
        assert [s.sequence for s in replayed] == [1, 2]

    def test_pending_count_and_token(self):
        buffer_ = RelocationBuffer("C", "sub", last_sequence=0)
        buffer_.hold(make_notification(1))
        assert buffer_.pending_count() == 1
        assert buffer_.token == "C/sub"
        assert "pending=1" in buffer_.describe()


class TestRelocationRecord:
    def test_latency(self):
        record = RelocationRecord("C", "sub", "B6", "B1", started_at=1.0)
        assert record.latency is None
        record.completed_at = 1.75
        assert record.latency == pytest.approx(0.75)
