"""Assembly of a complete pub/sub network from a topology.

:class:`PubSubNetwork` takes a :class:`~repro.topology.BrokerGraph`,
instantiates one :class:`~repro.broker.base.Broker` per node and one pair
of FIFO channels per edge, and exposes the handful of operations examples
and experiments need: attach clients, advance time, and read the trace.

The assembly is backend-generic: all wiring goes through a
:class:`~repro.runtime.protocols.Runtime`.  By default a
:class:`~repro.runtime.sim.SimRuntime` is created (simulated time,
latency-modelled links, deterministic event ordering — the behaviour
every experiment in this repository is pinned to); passing
``runtime=AioRuntime(...)`` runs the very same brokers on an asyncio
event loop over framed byte streams instead (see
:mod:`repro.runtime.aio`).  This module never imports the simulator
package — the backend choice is the runtime's business.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.broker.base import Broker, BrokerConfig
from repro.broker.client import Client
from repro.broker.recovery import RecoveryStore
from repro.filters.merging import FilterCaches
from repro.metrics.counters import data_plane_breakdown
from repro.routing.strategies import RoutingStrategy, make_strategy
from repro.runtime.protocols import Clock, Runtime
from repro.runtime.trace import TraceRecorder
from repro.telemetry import TelemetryConfig, active_telemetry_config
from repro.telemetry.emitter import BrokerTelemetry
from repro.topology.graph import BrokerGraph


class PubSubNetwork:
    """A broker network with attached clients, on a pluggable runtime."""

    def __init__(
        self,
        graph: BrokerGraph,
        strategy: "str | RoutingStrategy" = "covering",
        latency: Any = None,
        simulator: Optional[Clock] = None,
        trace: Optional[TraceRecorder] = None,
        config: Optional[BrokerConfig] = None,
        runtime: Optional[Runtime] = None,
        telemetry: Optional[TelemetryConfig] = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        if runtime is None:
            # The default backend is the discrete-event simulator.  The
            # import is deliberately local: the broker layer itself stays
            # free of any simulator dependency (tests/test_layering.py
            # enforces this); the sim backend is only pulled in when a
            # caller actually asks for the default runtime.
            from repro.runtime.sim import SimRuntime

            sim_kwargs = {} if latency is None else {"latency": latency}
            runtime = SimRuntime(simulator=simulator, trace=trace, **sim_kwargs)
        else:
            # The three sim-backend parameters configure the *default*
            # runtime; combining them with an explicit one would silently
            # drop them, so reject the conflict loudly.
            passed = {"latency": latency, "simulator": simulator, "trace": trace}
            conflicting = [name for name, value in passed.items() if value is not None]
            if conflicting:
                raise ValueError(
                    "PubSubNetwork got both an explicit runtime and the "
                    "sim-backend parameter(s) {}; configure the runtime "
                    "instead".format(", ".join(conflicting))
                )
        self.runtime = runtime
        self.clock: Clock = runtime.clock
        self.trace: TraceRecorder = runtime.trace
        self.config = config or BrokerConfig()
        if isinstance(strategy, str):
            strategy_factory: Callable[[], RoutingStrategy] = lambda: make_strategy(strategy)
        else:
            strategy_name = strategy.name
            strategy_factory = lambda: make_strategy(strategy_name)

        # One covering cache and one merge-pair cache for the whole
        # network: every broker tests the same filters along a path, and a
        # second network in the process starts cold.
        self.filter_caches = FilterCaches()
        self.brokers: Dict[str, Broker] = {}
        for name in graph.brokers():
            self.brokers[name] = Broker(
                name=name,
                clock=self.clock,
                strategy=strategy_factory(),
                trace=self.trace,
                config=self.config,
                filter_caches=self.filter_caches,
            )
        self.links: Dict[Tuple[str, str], Any] = {}
        for left, right in graph.edges():
            self._connect(left, right)
        self.clients: Dict[str, Client] = {}
        # Clients orphaned by a crash with no scripted takeover; the
        # failure detector adopts them when a neighbour observes the
        # missed lease (see ``failover_orphans``).
        self._orphans: Dict[str, List[Client]] = {}
        self.failure_detector: Optional[FailureDetector] = None

        # Telemetry: explicit config wins, otherwise the process-wide
        # default installed with repro.telemetry.enable_telemetry().
        # When neither is set the network runs dark — no sink, no
        # emitters, no probes; every broker hook site stays a single
        # ``is not None`` check (the zero-cost-off guarantee).
        self.telemetry_sink = None
        telemetry = telemetry if telemetry is not None else active_telemetry_config()
        if telemetry is not None:
            self.telemetry_sink = telemetry.make_sink()
            for name in sorted(self.brokers):
                broker = self.brokers[name]
                broker.attach_telemetry(
                    BrokerTelemetry(self.telemetry_sink, name, self.clock)
                )
            for (source, target), link in sorted(self.links.items()):
                link.depth_probe = self.brokers[source].metrics.queue_depth_probe(
                    "{}->{}".format(source, target)
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @property
    def simulator(self) -> Clock:
        """Historical alias for :attr:`clock` (the sim backend's clock is
        the ``Simulator`` instance itself)."""
        return self.clock

    def _connect(self, left: str, right: str) -> None:
        left_broker = self.brokers[left]
        right_broker = self.brokers[right]
        forward = self.runtime.connect(left, right, right_broker.receive)
        backward = self.runtime.connect(right, left, left_broker.receive)
        left_broker.add_link(forward)
        right_broker.add_link(backward)
        self.links[(left, right)] = forward
        self.links[(right, left)] = backward

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def broker(self, name: str) -> Broker:
        """The broker named *name*."""
        return self.brokers[name]

    def add_client(
        self,
        client_id: str,
        broker_name: str,
        notify: Optional[Callable[[str, Any, int], None]] = None,
    ) -> Client:
        """Create a client and attach it to the given border broker."""
        if client_id in self.brokers:
            raise ValueError(
                "client id {!r} collides with a broker name; use distinct names".format(client_id)
            )
        client = Client(client_id, notify=notify)
        client.attach(self.brokers[broker_name])
        self.clients[client_id] = client
        return client

    # ------------------------------------------------------------------
    # Failures and recovery
    # ------------------------------------------------------------------
    def enable_recovery(
        self,
        *broker_names: str,
        store_factory: Optional[Callable[[str], RecoveryStore]] = None,
    ) -> None:
        """Switch on crash recovery (admin journal + snapshots).

        With no arguments every broker gets a recovery store; otherwise
        only the named ones do.  *store_factory* maps a broker name to
        the store to attach (e.g. ``lambda name: DiskRecoveryStore(name,
        tmpdir)``); ``None`` attaches the in-memory default.  Must be
        called before the admin traffic that should survive a crash —
        the journal only records what it sees.
        """
        names = broker_names or tuple(self.brokers)
        for name in names:
            store = store_factory(name) if store_factory is not None else None
            self.brokers[name].reliability.enable_recovery(store)

    def snapshot_broker(self, name: str) -> int:
        """Checkpoint *name*'s routing state, truncating its journal."""
        return self.brokers[name].reliability.take_snapshot()

    def crash_broker(self, name: str, takeover: Optional[str] = None) -> int:
        """Crash broker *name*, failing its clients over to *takeover*.

        The broker's volatile routing state is wiped (its
        :class:`~repro.broker.recovery.RecoveryStore`, standing in for
        stable storage, survives).  Attached clients drop their
        connections; when *takeover* names a neighbour broker they
        immediately fail over to it — durable subscriptions are adopted
        via the takeover path, plain ones re-subscribe fresh.  With
        ``takeover=None`` the clients stay disconnected (their border
        broker may restart later).  Returns the number of clients that
        were attached at crash time.
        """
        broker = self.brokers[name]
        orphans = broker.attached_clients()
        broker.crash()
        # Runtime-level teardown, where the backend supports it: the
        # asyncio runtime tears the channels *into* the dead broker so
        # in-flight frames are dropped (and attributed) at the transport
        # layer instead of reaching a dead process.  The simulator's
        # links need no teardown — the broker-side intake gate drops at
        # delivery time with identical trace records.
        teardown = getattr(self.runtime, "teardown_broker", None)
        if teardown is not None:
            teardown(name)
        for client in orphans:
            client.drop_connection()
            if takeover is not None:
                client.failover_to(self.brokers[takeover], name)
        if takeover is None and orphans:
            self._orphans[name] = list(orphans)
        return len(orphans)

    def failover_orphans(self, dead: str, adopter: str) -> int:
        """Fail the clients orphaned by *dead*'s crash over to *adopter*.

        Called by the failure detector when a missed lease is observed;
        returns the number of clients adopted (0 when the crash already
        had a scripted takeover or the stash was consumed).
        """
        orphans = self._orphans.pop(dead, [])
        for client in orphans:
            client.failover_to(self.brokers[adopter], dead)
        return len(orphans)

    def restart_broker(self, name: str) -> int:
        """Restart a crashed broker from snapshot + journal replay.

        Returns the number of journal records replayed.  Clients do not
        re-attach automatically — a recovered border broker is just a
        broker again; move clients back with ``client.move_to(...)``.
        """
        restore = getattr(self.runtime, "restore_broker", None)
        if restore is not None:
            restore(name)
        self._orphans.pop(name, None)
        if self.failure_detector is not None:
            self.failure_detector.broker_restarted(name)
        return self.brokers[name].restart()

    def enable_failure_detection(
        self,
        heartbeat_interval: float,
        lease_timeout: float,
        until: float,
    ) -> "FailureDetector":
        """Start heartbeat/lease failure detection with a bounded horizon.

        Every ``heartbeat_interval`` (starting now, ending at *until*)
        each live broker beacons its neighbours, then every live broker
        checks its leases: a neighbour not heard from for more than
        ``lease_timeout`` is *suspected*, and the first (lowest-named)
        observer adopts the suspect's orphaned clients via
        :meth:`failover_orphans` — the crash transition is observed, not
        scripted.  The horizon keeps ``settle()`` terminating: ticks are
        pre-scheduled, never self-rescheduling, so both the simulator's
        drain and the virtual-time asyncio drive consume them
        identically.  Returns the detector (see its ``detections``).
        """
        detector = FailureDetector(self, heartbeat_interval, lease_timeout, until)
        self.failure_detector = detector
        return detector

    # ------------------------------------------------------------------
    # Execution control
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current time on the runtime's clock."""
        return self.clock.now

    def run_until(self, time: float) -> int:
        """Advance execution to *time* (inclusive)."""
        events = self.runtime.run_until(time)
        self._emit_metric_snapshots()
        return events

    def run_for(self, duration: float) -> int:
        """Advance execution by *duration* time units."""
        return self.run_until(self.clock.now + duration)

    def settle(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain (e.g. to let subscriptions propagate)."""
        events = self.runtime.settle(max_events=max_events)
        self._emit_metric_snapshots()
        return events

    def _emit_metric_snapshots(self) -> None:
        """Stream every broker's current registry state (telemetry only).

        Called at the end of every ``settle``/``run_until`` and once more
        from :meth:`close`: snapshots are cumulative, so a collector that
        keeps the latest per broker ends up holding exactly the run's
        final counters.
        """
        if self.telemetry_sink is None:
            return
        for name in sorted(self.brokers):
            broker = self.brokers[name]
            if broker._telemetry is not None:
                broker._telemetry.snapshot(broker.metrics)

    def close(self) -> None:
        """Release the runtime's resources and close any recovery stores."""
        if self.failure_detector is not None:
            self.failure_detector.cancel()
        if self.telemetry_sink is not None:
            self._emit_metric_snapshots()
            for broker in self.brokers.values():
                broker.attach_telemetry(None)
            self.telemetry_sink.close()
            self.telemetry_sink = None
        for broker in self.brokers.values():
            if broker.recovery is not None:
                broker.recovery.close()
        self.runtime.close()

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def total_messages(self, until: Optional[float] = None) -> int:
        """Total number of link traversals (notifications + admin + mobility)."""
        return self.trace.count_link_messages(until=until)

    def routing_table_sizes(self) -> Dict[str, int]:
        """Routing-table size per broker (used by the routing ablation)."""
        return {name: broker.routing_table_size() for name, broker in self.brokers.items()}

    def data_plane_breakdown(self) -> Dict[str, int]:
        """Matching/dispatch work of this network's brokers (see
        :func:`repro.metrics.counters.data_plane_breakdown`)."""
        return data_plane_breakdown(self.brokers[name] for name in sorted(self.brokers))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PubSubNetwork(brokers={}, clients={}, t={:.3f})".format(
            len(self.brokers), len(self.clients), self.clock.now
        )


class FailureDetector:
    """Heartbeat/lease failure detection over a :class:`PubSubNetwork`.

    At every tick each live broker emits one :class:`~repro.messages.
    control.Heartbeat` per neighbour link (sorted order), then each live
    broker — again in sorted order — checks its leases: a neighbour not
    heard from within ``lease_timeout`` is suspected exactly once, the
    detection is recorded in :attr:`detections`, and the observing
    broker adopts the suspect's orphaned clients.  The lease baseline is
    the detector's start time, so a silent-but-healthy neighbour is not
    suspected before it ever had a chance to beacon.

    The tick schedule is **bounded and pre-computed** (``start``,
    ``start + interval`` ... up to ``until``): both backends' settle
    semantics run every remaining event to quiescence, so a
    self-rescheduling timer would never let ``settle()`` return.  All
    scheduling goes through the runtime-agnostic
    :class:`~repro.runtime.protocols.Clock` protocol — the simulator and
    the virtual-time asyncio clock order ticks identically
    ``(time, insertion order)``, which is what keeps failure-schedule
    reports byte-identical across backends.
    """

    def __init__(
        self,
        network: PubSubNetwork,
        heartbeat_interval: float,
        lease_timeout: float,
        until: float,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if lease_timeout <= heartbeat_interval:
            raise ValueError(
                "lease_timeout must exceed heartbeat_interval "
                "(a lease shorter than one beacon period suspects everyone)"
            )
        self.network = network
        self.heartbeat_interval = float(heartbeat_interval)
        self.lease_timeout = float(lease_timeout)
        self.started_at = network.now
        self.until = float(until)
        #: (time, suspect, observer) per first-time suspicion.
        self.detections: List[Tuple[float, str, str]] = []
        self._suspected: Set[str] = set()
        self._handles: List[Any] = []
        tick_time = self.started_at
        while tick_time <= self.until + 1e-9:
            self._handles.append(
                network.clock.schedule_at(
                    tick_time, self._tick, label="failure-detector-tick"
                )
            )
            tick_time += self.heartbeat_interval

    def _tick(self) -> None:
        now = self.network.now
        brokers = self.network.brokers
        for name in sorted(brokers):
            brokers[name].reliability.emit_heartbeats()
        for name in sorted(brokers):
            observer = brokers[name]
            if observer.is_crashed:
                continue
            for neighbour in observer.neighbours():
                if neighbour in self._suspected:
                    continue
                last_heard = observer.reliability.heartbeat_last_heard.get(
                    neighbour, self.started_at
                )
                if now - last_heard > self.lease_timeout + 1e-9:
                    self._suspected.add(neighbour)
                    self.detections.append((now, neighbour, name))
                    observer.metrics.inc("failure_detections")
                    if observer._telemetry is not None:
                        observer._telemetry.log(
                            "warn",
                            "suspected {} dead (lease expired)".format(neighbour),
                        )
                    self.network.failover_orphans(neighbour, adopter=name)

    def suspected(self) -> List[str]:
        """Brokers currently suspected dead, sorted."""
        return sorted(self._suspected)

    def broker_restarted(self, name: str) -> None:
        """A suspect came back: clear it so a later crash is re-detectable."""
        self._suspected.discard(name)

    def cancel(self) -> None:
        """Cancel every remaining tick (idempotent)."""
        for handle in self._handles:
            handle.cancel()
        self._handles = []
