"""Live telemetry collector: an asyncio server aggregating framed events.

The collector runs its own asyncio loop on a daemon thread, so it can
serve N experiment processes (or N brokers of one in-process run using
:class:`~repro.telemetry.sinks.TcpSink`) without touching the run's own
event loop.  Each connection is a stream of length-prefixed frames in
the standard wire format (:mod:`repro.messages.wire`), decoded by
:func:`~repro.telemetry.events.decode_event` (a frame that is not an
event is skipped); each decoded event lands in a lock-guarded
:class:`CollectorAggregate`.

Aggregation rules:

* metric snapshots — keep the **latest per (connection, broker)**
  (snapshots are cumulative registry states, so the latest one per
  broker is that broker's total; summing successive ones would
  double-count, while keying by connection keeps two networks that
  reuse broker names — each network opens its own sink connection —
  from overwriting each other),
* spans and logs — append, for span-tree reconstruction and review,
* a torn final frame (sender killed mid-write) is tolerated and counted
  in :attr:`CollectorAggregate.torn_frames`, never raised.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.messages.wire import FRAME_HEADER_SIZE, WireError, decode_frame_payload
from repro.telemetry.events import LogEvent, MetricSnapshotEvent, SpanEvent, decode_event


class CollectorAggregate:
    """Thread-safe rollup of everything a collector has ingested."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (connection id, broker name) -> latest snapshot.
        self.snapshots: Dict[Tuple[int, str], MetricSnapshotEvent] = {}
        #: (connection id, span) in arrival order — the connection scopes
        #: a trace id, since trace ids are only unique within one network.
        self.spans: List[Tuple[int, SpanEvent]] = []
        self.logs: List[LogEvent] = []
        self.events_ingested = 0
        self.torn_frames = 0
        self.connections = 0

    def ingest(self, event: Any, source: int = 0) -> None:
        with self._lock:
            self.events_ingested += 1
            if isinstance(event, MetricSnapshotEvent):
                key = (source, event.broker)
                previous = self.snapshots.get(key)
                if previous is None or event.time >= previous.time:
                    self.snapshots[key] = event
            elif isinstance(event, SpanEvent):
                self.spans.append((source, event))
            elif isinstance(event, LogEvent):
                self.logs.append(event)

    def totals(self) -> Dict[str, int]:
        """Sum of every counter over the latest snapshot of each broker."""
        with self._lock:
            totals: Dict[str, int] = {}
            for snapshot in self.snapshots.values():
                for name, value in snapshot.counters.items():
                    totals[name] = totals.get(name, 0) + value
            return totals

    def broker_counters(self) -> Dict[str, Dict[str, int]]:
        """Latest counters per broker name, summed across connections."""
        with self._lock:
            out: Dict[str, Dict[str, int]] = {}
            for (_, broker), snapshot in sorted(self.snapshots.items()):
                merged = out.setdefault(broker, {})
                for name, value in snapshot.counters.items():
                    merged[name] = merged.get(name, 0) + value
            return out

    def span_sources(self) -> List[int]:
        """Connection ids that contributed spans, sorted."""
        with self._lock:
            return sorted({source for source, _ in self.spans})

    def span_list(self, source: Optional[int] = None) -> List[SpanEvent]:
        """Ingested spans, optionally restricted to one connection."""
        with self._lock:
            return [
                span
                for span_source, span in self.spans
                if source is None or span_source == source
            ]

    def log_list(self) -> List[LogEvent]:
        with self._lock:
            return list(self.logs)

    def summary(self) -> str:
        """A short text summary of the aggregate state."""
        with self._lock:
            brokers = sorted({broker for _, broker in self.snapshots})
            totals: Dict[str, int] = {}
            for snapshot in self.snapshots.values():
                for name, value in snapshot.counters.items():
                    totals[name] = totals.get(name, 0) + value
            span_count = len(self.spans)
            log_count = len(self.logs)
            ingested = self.events_ingested
            torn = self.torn_frames
        lines = [
            "collector: {} events from {} broker(s), {} span(s), {} log(s)".format(
                ingested, len(brokers), span_count, log_count
            )
        ]
        for name in (
            "notifications_received",
            "notifications_forwarded",
            "notifications_delivered",
            "constraint_evals",
        ):
            if name in totals:
                lines.append("  {} = {}".format(name, totals[name]))
        if torn:
            lines.append("  torn final frames tolerated: {}".format(torn))
        return "\n".join(lines)


class TelemetryCollector:
    """Framed-event TCP server on a daemon thread (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        summary_interval: Optional[float] = None,
        printer=print,
    ) -> None:
        self.aggregate = CollectorAggregate()
        self._host = host
        self._port = port
        self._summary_interval = summary_interval
        self._printer = printer
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = threading.Event()
        self._stopping: Optional[asyncio.Event] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Start serving; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("collector already started")
        self._thread = threading.Thread(
            target=self._run, name="telemetry-collector", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("telemetry collector failed to start")
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        """Stop the server and join the thread (idempotent)."""
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._request_stop)
            self._thread.join(timeout=10.0)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "TelemetryCollector":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- server internals (collector thread only) ----------------------
    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

    async def _serve(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        sockets = self._server.sockets or []
        bound = sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        self._stopping = asyncio.Event()
        self._started.set()
        ticker = None
        if self._summary_interval is not None:
            ticker = asyncio.ensure_future(self._summary_ticker())
        try:
            await self._stopping.wait()
        finally:
            if ticker is not None:
                ticker.cancel()
            self._server.close()
            await self._server.wait_closed()

    def _request_stop(self) -> None:
        self._stopping.set()

    async def _summary_ticker(self) -> None:
        while True:
            await asyncio.sleep(self._summary_interval)
            self._printer(self.aggregate.summary())

    async def _handle_connection(self, reader, writer) -> None:
        self.aggregate.connections += 1
        connection_id = self.aggregate.connections
        try:
            while True:
                try:
                    header = await reader.readexactly(FRAME_HEADER_SIZE)
                except asyncio.IncompleteReadError as error:
                    if error.partial:
                        self.aggregate.torn_frames += 1
                    break
                try:
                    length = decode_frame_payload(header)
                except WireError:
                    self.aggregate.torn_frames += 1
                    break
                try:
                    payload = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    self.aggregate.torn_frames += 1
                    break
                try:
                    event = decode_event(payload)
                except WireError:
                    continue
                self.aggregate.ingest(event, source=connection_id)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
