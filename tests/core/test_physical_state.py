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


def open_buffer():
    """The relocation buffer of a move of ``C/sub`` to ``B1``, not yet replayed."""
    return RelocationBuffer(RelocationRecord("C", "sub", None, "B1", started_at=0.0))


class TestRelocationBuffer:
    def test_flush_orders_replay_before_fresh(self):
        buffer_ = open_buffer()
        fresh = make_notification(10)
        buffer_.hold(fresh)
        counterpart = VirtualCounterpart("C", "sub", Filter({}), next_sequence=3)
        replay = [counterpart.buffer(make_notification(seq)) for seq in (3, 4)]
        replayed, fresh_out = buffer_.flush(replay)
        assert [s.sequence for s in replayed] == [3, 4]
        assert [n.publisher_seq for n in fresh_out] == [10]

    def test_flush_deduplicates_by_identity(self):
        buffer_ = open_buffer()
        shared = make_notification(5)
        buffer_.hold(shared)
        counterpart = VirtualCounterpart("C", "sub", Filter({}), next_sequence=1)
        replayed, fresh_out = buffer_.flush([counterpart.buffer(shared)])
        assert len(replayed) == 1
        assert fresh_out == []

    def test_flush_deduplicates_repeated_fresh(self):
        buffer_ = open_buffer()
        repeated = make_notification(1)
        buffer_.hold(repeated)
        buffer_.hold(repeated)
        replayed, fresh_out = buffer_.flush([])
        assert replayed == []
        assert len(fresh_out) == 1

    def test_replay_sorted_even_if_received_out_of_order(self):
        buffer_ = open_buffer()
        counterpart = VirtualCounterpart("C", "sub", Filter({}), next_sequence=1)
        first = counterpart.buffer(make_notification(1))
        second = counterpart.buffer(make_notification(2))
        replayed, _ = buffer_.flush([second, first])
        assert [s.sequence for s in replayed] == [1, 2]

    def test_token_and_held(self):
        buffer_ = open_buffer()
        held = make_notification(1)
        buffer_.hold(held)
        assert buffer_.token == "C/sub"
        assert buffer_.flush([]) == ([], [held])


class TestRelocationRecord:
    def test_latency(self):
        record = RelocationRecord("C", "sub", "B6", "B1", started_at=1.0)
        assert record.latency is None
        record.completed_at = 1.75
        assert record.latency == pytest.approx(0.75)
