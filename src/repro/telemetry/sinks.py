"""Telemetry sinks — where emitted events go.

A sink accepts :class:`~repro.telemetry.events.TelemetryEvent` objects
one at a time and is the *only* boundary between an instrumented run and
the outside world.  Two implementations:

* :class:`RingBufferSink` — in-process, bounded; the default for tests
  and benchmarks (no I/O, no serialisation unless asked).
* :class:`TcpSink` — streams length-prefixed frames (the exact wire
  format of :func:`repro.messages.wire.encode_frame`) over a **blocking** TCP
  socket to a live collector.  Blocking on purpose: the sink never
  touches the run's event loop, so enabling telemetry cannot reorder the
  run itself (determinism is preserved; only wall-clock slows down).

Sinks are synchronous and never raise into the instrumented code path:
a broken pipe flips the sink into a dropped state and subsequent emits
count drops instead of failing the experiment.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.messages.wire import encode_frame
from repro.telemetry.events import TelemetryEvent


class TelemetrySink:
    """Base sink interface: :meth:`emit` events, then :meth:`close`."""

    def emit(self, event: TelemetryEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class RingBufferSink(TelemetrySink):
    """Keeps the most recent *capacity* events in memory."""

    def __init__(self, capacity: int = 100_000) -> None:
        self._buffer: Deque[TelemetryEvent] = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, event: TelemetryEvent) -> None:
        self.emitted += 1
        self._buffer.append(event)

    def events(self) -> List[TelemetryEvent]:
        """The retained events, oldest first."""
        return list(self._buffer)


class TcpSink(TelemetrySink):
    """Streams framed events to a collector over blocking TCP.

    If the connection dies mid-run the sink drops subsequent events
    (counted in :attr:`dropped`) rather than failing the experiment.
    """

    def __init__(self, host: str, port: int, connect_timeout: float = 5.0) -> None:
        # Imported here: a run that streams nowhere never loads ``socket``.
        import socket

        self._socket: Optional[socket.socket] = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._socket.settimeout(None)
        self.emitted = 0
        self.dropped = 0

    def emit(self, event: TelemetryEvent) -> None:
        if self._socket is None:
            self.dropped += 1
            return
        try:
            self._socket.sendall(encode_frame(event))
            self.emitted += 1
        except OSError:
            self._close_socket()
            self.dropped += 1

    def close(self) -> None:
        if self._socket is not None:
            import socket

            try:
                self._socket.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        self._close_socket()

    def _close_socket(self) -> None:
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
            self._socket = None
