"""The protocols the broker core needs from a backend.

The paper assumes only "point-to-point, FIFO order communication links,
e.g., TCP connections" (Section 2.1) and some notion of local time.
Everything else — event ordering, latency models, real sockets — is a
backend concern.  These protocols capture exactly what the core uses:

* :class:`Clock` — read the current time and schedule/cancel callbacks.
  The broker itself only reads ``now`` (timestamps on buffers, traces
  and relocation records); the mobility driver and the simulated links
  also schedule.
* :class:`Channel` — a unidirectional FIFO channel from ``source`` to
  ``target``.  ``send`` enqueues a message; the backend invokes the
  delivery callback (fixed at channel construction) once the message
  arrives.  FIFO order per channel is the only ordering guarantee the
  core relies on.
* :class:`Runtime` — wiring and tracing: owns the clock and the trace
  recorder, builds channels, and drives execution (``settle`` /
  ``run_until``).

The protocols are structural (:class:`typing.Protocol`): the simulator's
``Simulator``/``Link`` classes satisfy them as-is, which is what keeps
the sim backend byte-identical to the pre-split behaviour.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from repro.messages.base import Message
from repro.runtime.trace import TraceRecorder


class ScheduledCall(Protocol):
    """A cancellable handle returned by :meth:`Clock.schedule`.

    Every backend returns a handle with the same surface — the
    simulator's ``Event`` (also what the asyncio backend's virtual clock
    returns, since that clock is a simulator) and the asyncio wall-clock
    timer both satisfy it structurally — so itinerary and scenario code
    can schedule and cancel without knowing the backend.
    """

    #: ``True`` once :meth:`cancel` ran; the callback will never fire.
    cancelled: bool

    def cancel(self) -> None:
        """Prevent the scheduled callback from running (idempotent)."""
        ...


class Clock(Protocol):
    """Local time plus callback scheduling."""

    @property
    def now(self) -> float:
        """The current time, in seconds (simulated or real)."""
        ...

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> ScheduledCall:
        """Run ``callback(*args, **kwargs)`` *delay* seconds from now."""
        ...

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> ScheduledCall:
        """Run ``callback(*args, **kwargs)`` at absolute time *time*."""
        ...


#: Delivery callback a channel invokes with ``(message, channel)``.
DeliverFn = Callable[[Message, "Channel"], None]


class Channel(Protocol):
    """A unidirectional FIFO message channel between two named endpoints."""

    source: str
    target: str

    def send(self, message: Message) -> None:
        """Enqueue *message*; the backend delivers it in FIFO order."""
        ...


class Runtime(Protocol):
    """A backend: wiring (channels), time (clock) and tracing."""

    @property
    def clock(self) -> Clock:
        """The backend's clock."""
        ...

    @property
    def trace(self) -> TraceRecorder:
        """The trace recorder channels and brokers report into."""
        ...

    def connect(self, source: str, target: str, deliver: DeliverFn) -> Channel:
        """Create the FIFO channel from *source* to *target*.

        *deliver(message, channel)* receives each message in send order.
        """
        ...

    def settle(self, max_events: int = 1_000_000) -> int:
        """Run until no work remains (message quiescence)."""
        ...

    def run_until(self, time: float) -> int:
        """Advance execution up to *time* on the backend's clock."""
        ...

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        ...
