"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(2.0, order.append, "late")
        simulator.schedule(1.0, order.append, "early")
        simulator.schedule(3.0, order.append, "last")
        simulator.run()
        assert order == ["early", "late", "last"]

    def test_ties_broken_by_insertion_order(self):
        simulator = Simulator()
        order = []
        for label in ("first", "second", "third"):
            simulator.schedule(1.0, order.append, label)
        simulator.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(5.0, lambda: seen.append(simulator.now))
        simulator.run()
        assert seen == [5.0]
        assert simulator.now == 5.0

    def test_schedule_at_absolute_time(self):
        simulator = Simulator(start_time=10.0)
        simulator.schedule_at(12.5, lambda: None)
        simulator.run()
        assert simulator.now == 12.5

    def test_cannot_schedule_in_the_past(self):
        simulator = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            simulator.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            simulator.schedule_at(9.0, lambda: None)

    def test_past_scheduling_error_names_the_event(self):
        simulator = Simulator(start_time=10.0)
        with pytest.raises(SimulationError, match="deliver on A->B"):
            simulator.schedule(-0.5, lambda: None, label="deliver on A->B")
        with pytest.raises(SimulationError, match="flush B->C"):
            simulator.schedule_at(9.0, lambda: None, label="flush B->C")

    def test_schedule_at_exactly_now_is_valid(self):
        """Boundary case: ``time == now`` / ``delay == 0`` runs, in order."""
        simulator = Simulator(start_time=10.0)
        seen = []
        simulator.schedule_at(10.0, seen.append, "absolute")
        simulator.schedule(0.0, seen.append, "relative")
        simulator.run()
        assert seen == ["absolute", "relative"]
        assert simulator.now == 10.0

    def test_event_can_schedule_at_current_instant(self):
        """An event firing at t may schedule another event at exactly t."""
        simulator = Simulator()
        seen = []

        def first():
            simulator.schedule_at(simulator.now, seen.append, "chained")

        simulator.schedule_at(2.0, first)
        simulator.run()
        assert seen == ["chained"]
        assert simulator.now == 2.0

    def test_events_can_schedule_more_events(self):
        simulator = Simulator()
        seen = []

        def chain(depth):
            seen.append(simulator.now)
            if depth > 0:
                simulator.schedule(1.0, chain, depth - 1)

        simulator.schedule(1.0, chain, 3)
        simulator.run()
        assert seen == [1.0, 2.0, 3.0, 4.0]

    def test_cancelled_events_are_skipped(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(1.0, seen.append, "keep")
        drop = simulator.schedule(2.0, seen.append, "drop")
        drop.cancel()
        simulator.run()
        assert seen == ["keep"]
        assert simulator.processed_events == 1

    def test_kwargs_are_passed(self):
        simulator = Simulator()
        seen = {}
        simulator.schedule(1.0, seen.update, value=42)
        simulator.run()
        assert seen == {"value": 42}


class TestRunControl:
    def test_run_until_stops_at_horizon(self):
        simulator = Simulator()
        seen = []
        for time in (1.0, 2.0, 3.0, 4.0):
            simulator.schedule_at(time, seen.append, time)
        simulator.run_until(2.5)
        assert seen == [1.0, 2.0]
        assert simulator.now == 2.5
        simulator.run()
        assert seen == [1.0, 2.0, 3.0, 4.0]

    def test_run_until_advances_clock_even_without_events(self):
        simulator = Simulator()
        simulator.run_until(7.0)
        assert simulator.now == 7.0

    def test_run_until_rejects_past_horizon(self):
        simulator = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            simulator.run_until(4.0)

    def test_run_until_inclusive_boundary(self):
        simulator = Simulator()
        seen = []
        simulator.schedule_at(2.0, seen.append, "boundary")
        simulator.run_until(2.0)
        assert seen == ["boundary"]

    def test_run_max_events(self):
        simulator = Simulator()
        seen = []
        for time in (1.0, 2.0, 3.0):
            simulator.schedule_at(time, seen.append, time)
        executed = simulator.run(max_events=2)
        assert executed == 2
        assert seen == [1.0, 2.0]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_step_horizon_leaves_later_events_and_clock_alone(self):
        simulator = Simulator()
        seen = []
        simulator.schedule_at(1.0, lambda: None).cancel()
        simulator.schedule_at(2.0, seen.append, 2.0)
        assert simulator.step(until=1.5) is False
        assert (seen, simulator.now) == ([], 0.0)
        assert simulator.step(until=2.0) is True
        assert (seen, simulator.now) == ([2.0], 2.0)

    def test_pending_events_count(self):
        simulator = Simulator()
        event = simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        assert simulator.pending_events() == 2
        event.cancel()
        assert simulator.pending_events() == 1

    def test_drain_raises_on_runaway(self):
        simulator = Simulator()

        def forever():
            simulator.schedule(1.0, forever)

        simulator.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            simulator.drain(settle_limit=50)


class TestPendingEventCounter:
    def test_cancel_after_execution_does_not_corrupt_count(self):
        simulator = Simulator()
        executed = simulator.schedule(1.0, lambda: None)
        pending = simulator.schedule(2.0, lambda: None)
        simulator.step()
        assert simulator.pending_events() == 1
        # A late (and even repeated) cancel of the already-executed event
        # must not touch the live count.
        executed.cancel()
        executed.cancel()
        assert simulator.pending_events() == 1
        pending.cancel()
        assert simulator.pending_events() == 0

    def test_double_cancel_counts_once(self):
        simulator = Simulator()
        event = simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert simulator.pending_events() == 1
