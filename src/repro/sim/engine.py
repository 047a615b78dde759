"""Discrete-event simulation engine.

A minimal but complete event-driven simulator: callbacks are scheduled at
absolute simulated times and executed in time order; ties are broken by
insertion order so that runs are fully deterministic.  All components of
the middleware (links, brokers, clients, movement models, workload
generators) schedule their work through one shared :class:`Simulator`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events can be cancelled; a cancelled event stays in the heap but is
    skipped when popped (standard lazy deletion).
    """

    __slots__ = ("time", "order", "callback", "args", "kwargs", "cancelled", "label", "_on_cancel")

    def __init__(
        self,
        time: float,
        order: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: dict,
        label: str = "",
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.time = time
        self.order = order
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.label = label
        self._on_cancel = on_cancel

    def cancel(self) -> None:
        """Prevent the event's callback from running."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.order) < (other.time, other.order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return "Event(t={:.6f}, {}, {})".format(self.time, self.label or self.callback, state)


class Simulator:
    """Event queue plus simulated clock.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.5, some_callback, arg1, arg2)
        sim.run_until(100.0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Event] = []
        self._order = itertools.count()
        self._processed = 0
        self._running = False
        # Live count of scheduled, not-yet-cancelled, not-yet-executed
        # events, so pending_events() does not scan the whole heap.
        self._live = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._processed

    def pending_events(self) -> int:
        """Number of scheduled, not-yet-cancelled events (O(1))."""
        return self._live

    def _note_cancelled(self) -> None:
        self._live -= 1

    # -- scheduling ----------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule *callback* to run *delay* time units from now.

        ``delay=0`` is valid: the event runs at the current time, after
        the events already queued for it (insertion order breaks ties).
        """
        if delay < 0:
            raise SimulationError(
                "cannot schedule event {!r} in the past (delay={})".format(
                    label or callback, delay
                )
            )
        return self.schedule_at(self._now + delay, callback, *args, label=label, **kwargs)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule *callback* to run at absolute simulated *time*.

        ``time == now`` is valid (boundary case): the event runs at the
        current instant, after the events already queued for it.
        """
        if time < self._now:
            raise SimulationError(
                "cannot schedule event {!r} in the past (time={} < now={})".format(
                    label or callback, time, self._now
                )
            )
        event = Event(
            float(time),
            next(self._order),
            callback,
            args,
            kwargs,
            label=label,
            on_cancel=self._note_cancelled,
        )
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    # -- execution --------------------------------------------------------------
    def step(self, until: Optional[float] = None) -> bool:
        """Execute the next pending event, if it is due by *until*.

        Returns ``False`` when nothing was executed: the queue is empty,
        or its next live event lies beyond the horizon *until*.
        """
        queue = self._queue
        while queue:
            event = queue[0]
            if event.cancelled:
                # Already subtracted from the live count when cancelled.
                heapq.heappop(queue)
                continue
            if until is not None and event.time > until:
                return False
            heapq.heappop(queue)
            self._live -= 1
            # The event has left the queue; a late cancel() must not touch
            # the live count again.
            event._on_cancel = None
            self._now = event.time
            event.callback(*event.args, **event.kwargs)
            self._processed += 1
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or *max_events* events executed).

        Returns the number of events executed by this call.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            if not self.step():
                break
            executed += 1
        return executed

    def run_until(self, end_time: float) -> int:
        """Run events up to and including *end_time*.

        The clock is advanced to *end_time* even if the queue drains
        earlier, so subsequent scheduling is relative to the requested
        horizon.  Returns the number of events executed.
        """
        if end_time < self._now:
            raise SimulationError(
                "run_until target {} is before current time {}".format(end_time, self._now)
            )
        executed = 0
        while self.step(end_time):
            executed += 1
        if self._now < end_time:
            self._now = end_time
        return executed

    def drain(self, settle_limit: int = 1_000_000) -> int:
        """Run to quiescence with a safety cap on the number of events."""
        executed = self.run(max_events=settle_limit)
        if self._queue and self.pending_events() > 0 and executed >= settle_limit:
            raise SimulationError(
                "simulation did not quiesce within {} events".format(settle_limit)
            )
        return executed
