"""Drives one workload through the system under test and times it.

The harness is the only place that touches ``repro``, and in the untraced
run it touches only the surface the README lists as stable:
``PubSubNetwork`` (``add_client(notify=…)``, ``settle``, ``run_until``,
``clock``, ``links[*].sent_count``, ``brokers[name]`` as the argument of
``move_to``, ``enable_recovery``, ``close``), the ``Client`` operations,
``AioRuntime(transport="tcp")``, ``balanced_tree_topology``,
``MovementGraph.grid``, ``UncertaintyPlan.adaptive`` and ``MYLOC``.
Latencies are stamped here with ``perf_counter`` — at the ``publish``
call (or its due time, open loop) and in the ``notify`` callback — and
never read back from ``Client.received`` or the trace.

``repro`` is imported inside :class:`Driver`, not at module level, so
collecting this directory with pytest costs nothing.
"""

import gc
import resource
import statistics
import sys
import traceback
from time import perf_counter

from workloads import MYLOC_MARKER, Oracle

#: Every round metric is the median of at least this many rounds.
MIN_CYCLES = 3

#: Round sizes in ``workloads.py`` are set so that one cycle takes about
#: this long on the 2-core reference container; ``--seconds`` buys
#: ``seconds / CYCLE_SECONDS`` cycles.
CYCLE_SECONDS = 1.6

#: Wall-clock figures taken once per round, with their units; a run reports
#: the median over its rounds.
ROUND_METRICS = (
    ("deliveries_per_s", "1/s"),
    ("deliver_p50_ms", "ms"),
    ("deliver_p99_ms", "ms"),
    ("control_p50_ms", "ms"),
    ("control_p90_ms", "ms"),
)

#: Simulated one-way link delay handed to the adaptive uncertainty plan.
LINK_DELAY = 0.05


class NoSpans:
    """Stands in for :class:`spans.SpanRecorder` in the untraced run."""

    phase = "idle"

    def begin_operation(self, kind):
        pass

    def end_operation(self):
        pass


def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[min(len(sorted_values) - 1, int(fraction * len(sorted_values)))]


class Driver:
    """The network under test plus the bookkeeping around every operation.

    Oracle bookkeeping never runs inside a timed region: publications are
    queued in ``_unreported`` and handed to the oracle once the clock has
    stopped, which is still "at publish time" because subscriptions only
    change between windows.
    """

    def __init__(self, workload, spans=None):
        from repro import MYLOC, MovementGraph, PubSubNetwork, UncertaintyPlan
        from repro import balanced_tree_topology

        self.workload = workload
        self.spans = spans if spans is not None else NoSpans()
        self.oracle = Oracle()
        topology = balanced_tree_topology(depth=workload.tree_depth, fanout=2)
        if workload.backend == "tcp":
            from repro.runtime.aio import AioRuntime

            self.network = PubSubNetwork(
                topology, strategy="covering", runtime=AioRuntime(transport="tcp")
            )
        else:
            self.network = PubSubNetwork(topology, strategy="covering")
        if workload.recovery:
            self.network.enable_recovery()
        self.leaf_names = topology.leaves()
        self.clients = {}
        self.subscription_ids = {}  # (client, key) -> id the system assigned
        self.keys = {}  # (client, id) -> key
        self.sequence = {}  # producer -> publications so far
        self.deliveries = []  # (client, subscription id, identity, perf_counter)
        self.control_samples = []
        self.generator_lag = []
        self._unreported = []  # (identity, attributes) the oracle has not seen yet
        if workload.grid_side:
            self._myloc = MYLOC
            self._grid = MovementGraph.grid(workload.grid_side, workload.grid_side)
            hops = 2 * workload.tree_depth
            self._plan = UncertaintyPlan.adaptive(dwell_time=1.0, hop_delays=[LINK_DELAY] * hops)

    # -- failure accounting ----------------------------------------------------
    def _operation_failed(self):
        """Called from an ``except`` block: one failed operation, not a crash."""
        self.oracle.operations_failed += 1
        traceback.print_exc(file=sys.stderr)

    def _guard(self, call, *args):
        """Run ``call(*args)``, turning an exception into a failed operation."""
        try:
            return call(*args)
        except Exception:
            self._operation_failed()
            return None

    # -- set-up operations -------------------------------------------------------
    def add_client(self, client, leaf):
        deliveries = self.deliveries

        def notify(subscription_id, notification, sequence):
            deliveries.append((client, subscription_id, notification.identity, perf_counter()))

        broker = self.leaf_names[leaf]
        self.clients[client] = self.network.add_client(client, broker, notify=notify)

    def advertise(self, client, template):
        self.clients[client].advertise(template)

    def settle(self):
        self.network.settle()

    def _remember(self, client, key, subscription_id, template):
        self._report_publications()
        self.subscription_ids[(client, key)] = subscription_id
        self.keys[(client, subscription_id)] = key
        self.oracle.subscribe(client, key, template)

    def subscribe(self, client, key, template):
        self._remember(client, key, self.clients[client].subscribe(template), template)

    def subscribe_logical(self, client, key, template, block):
        system_template = {
            name: self._myloc if spec == MYLOC_MARKER else spec for name, spec in template.items()
        }
        subscription_id = self.clients[client].subscribe_location_dependent(
            system_template, movement_graph=self._grid, plan=self._plan, initial_location=block
        )
        self._remember(client, key, subscription_id, dict(template, location=block))

    # -- publishing --------------------------------------------------------------
    def _publish(self, producer, attributes):
        sequence = self.sequence.get(producer, 0) + 1
        self.sequence[producer] = sequence
        self.oracle.operations += 1
        self._unreported.append(((producer, sequence), attributes))
        notification = self.clients[producer].publish(attributes)
        if notification.identity != (producer, sequence):
            raise RuntimeError(
                "publish returned identity {} where {} was due".format(
                    notification.identity, (producer, sequence)
                )
            )

    def _publish_window(self, bursts):
        for burst in bursts:
            for producer, attributes in burst:
                self._publish(producer, attributes)
        self.network.settle()

    def _report_publications(self):
        for identity, attributes in self._unreported:
            self.oracle.publish(identity, attributes)
        self._unreported.clear()

    def publish_untimed(self, bursts):
        """Publish *bursts* back to back and settle once (inside control rounds)."""
        self._rooted("publish_untimed", self._publish_window, bursts)
        self._report_publications()

    # -- control operations ------------------------------------------------------
    def _rooted(self, kind, call, *args):
        """An untimed harness operation: guarded, and the root of its own trace."""
        self.spans.begin_operation(kind)
        self._guard(call, *args)
        self.spans.end_operation()

    def unsubscribe(self, client, key):
        self._report_publications()
        self.oracle.operations += 1
        self.oracle.unsubscribe(client, key)
        subscription_id = self.subscription_ids.pop((client, key))
        self._rooted("unsubscribe", self._unsubscribe, client, subscription_id)

    def _unsubscribe(self, client, subscription_id):
        self.clients[client].unsubscribe(subscription_id)
        self.network.settle()

    def detach(self, client):
        self.oracle.operations += 1
        self._rooted("detach", self.clients[client].detach)

    def _timed(self, kind, call, *args):
        """``call(*args)`` → ``settle`` returns, as one control-latency sample."""
        self.oracle.operations += 1
        self.spans.begin_operation(kind)
        started = perf_counter()
        try:
            result = call(*args)
            self.network.settle()
            self.control_samples.append(perf_counter() - started)
            return result
        except Exception:
            self._operation_failed()
            return None
        finally:
            self.spans.end_operation()

    def timed_subscribe(self, client, key, template):
        subscription_id = self._timed("subscribe", self.clients[client].subscribe, template)
        if subscription_id is not None:
            self._remember(client, key, subscription_id, template)

    def timed_move(self, client, leaf):
        broker = self.network.brokers[self.leaf_names[leaf]]
        self._timed("handover", self.clients[client].move_to, broker)

    def timed_set_location(self, client, key, block):
        self._timed("location_update", self.clients[client].set_location, block)
        self._report_publications()
        template = self.oracle.active[(client, key)]
        self.oracle.unsubscribe(client, key)
        self.oracle.subscribe(client, key, dict(template, location=block))

    # -- the three rounds of a cycle ---------------------------------------------
    def throughput_round(self):
        """Closed loop: ``window`` bursts published back to back, settle, repeat.

        Returns deliveries handed to ``notify`` per wall-second — the median
        over the round's windows, so that a window the machine stalled in
        counts as one slow window instead of dragging the round's average.
        """
        workload = self.workload
        rates = []
        for _ in range(workload.throughput_windows):
            bursts = workload.bursts(workload.window)
            before = len(self.deliveries)
            self.spans.begin_operation("publish_window")
            started = perf_counter()
            self._guard(self._publish_window, bursts)
            elapsed = perf_counter() - started
            self.spans.end_operation()
            rates.append((len(self.deliveries) - before) / elapsed)
            self._report_publications()
        return statistics.median(rates)

    def latency_round(self):
        """Publish→``notify`` samples in seconds; closed loop, one burst in flight."""
        if self.workload.open_loop_rate:
            return self._open_loop_round()
        samples = []
        deliveries = self.deliveries
        for burst in self.workload.bursts(self.workload.latency_bursts):
            before = len(deliveries)
            self.spans.begin_operation("publish")
            started = perf_counter()
            self._guard(self._publish_window, [burst])
            self.spans.end_operation()
            samples.extend(record[3] - started for record in deliveries[before:])
            self._report_publications()
        return samples

    def _open_loop_round(self):
        """Publications fire on the network's wall clock at a fixed rate.

        Latency runs from the instant a publication was *due*, so a stall
        charges every publication queued behind it; how late the generator
        itself ran is kept in ``generator_lag``.
        """
        workload = self.workload
        clock = self.network.clock
        interval = 1.0 / workload.open_loop_rate
        bursts = workload.bursts(workload.latency_bursts)
        before = len(self.deliveries)
        due = {}  # identity -> perf_counter value at which it was due
        clock_zero = clock.now + 0.02
        counter_zero = perf_counter() + 0.02

        def fire(index):
            offset = index * interval
            self.generator_lag.append(clock.now - clock_zero - offset)
            for producer, attributes in bursts[index]:
                due[(producer, self.sequence.get(producer, 0) + 1)] = counter_zero + offset
                self._guard(self._publish, producer, attributes)

        self.spans.begin_operation("publish_stream")
        for index in range(len(bursts)):
            clock.schedule_at(clock_zero + index * interval, fire, index)
        self._guard(self.network.run_until, clock_zero + len(bursts) * interval)
        self._guard(self.network.settle)
        self.spans.end_operation()
        self._report_publications()
        return [record[3] - due[record[2]] for record in self.deliveries[before:]]

    def control_round(self):
        """The workload's control operations; returns operation→settled seconds."""
        self.control_samples = []
        self.workload.control_round(self)
        return self.control_samples

    # -- reading the system from outside -------------------------------------------
    def link_messages(self):
        return sum(link.sent_count for link in self.network.links.values())

    def delivered_triples(self):
        """Deliveries as the oracle names them: ``(client, key, identity)``."""
        keys = self.keys
        return [
            (client, keys.get((client, subscription_id), subscription_id), identity)
            for client, subscription_id, identity, _ in self.deliveries
        ]

    def close(self):
        self.network.close()


def set_up(workload, spans=None):
    """Build the network and the standing population; returns (driver, seconds)."""
    started = perf_counter()
    driver = Driver(workload, spans)
    workload.setup(driver)
    driver.settle()
    return driver, perf_counter() - started


def run_cycle(driver):
    """One throughput, one latency and one control round; returns the round metrics.

    Each round starts from a freshly collected heap.  The collector stays
    on, so a round pays for the young-generation collections its own
    garbage causes, but whether a full-heap pass (tens of milliseconds by
    the end of a run, because the trace and ``Client.received`` only grow)
    happens to fall inside a half-second round depends on the history of
    the heap, not on the code under test.
    """
    spans = driver.spans
    gc.collect()
    spans.phase = "throughput"
    rate = driver.throughput_round()
    gc.collect()
    spans.phase = "latency"
    latencies = sorted(driver.latency_round())
    gc.collect()
    spans.phase = "control"
    controls = sorted(driver.control_round())
    spans.phase = "idle"
    return {
        "deliveries_per_s": rate,
        "deliver_p50_ms": percentile(latencies, 0.50) * 1e3,
        "deliver_p99_ms": percentile(latencies, 0.99) * 1e3,
        "control_p50_ms": percentile(controls, 0.50) * 1e3,
        "control_p90_ms": percentile(controls, 0.90) * 1e3,
        "deliver_samples": len(latencies),
        "control_samples": len(controls),
    }


def warm_up(driver):
    """One cycle of fixed size, discarded for timing; returns its wall seconds."""
    started = perf_counter()
    run_cycle(driver)
    return perf_counter() - started


def run_cycles(driver, cycles, deadline_s):
    """*cycles* measured cycles on a warmed-up driver; returns raw results.

    The amount of work is fixed, not the time: every run of one workload
    then walks the same heap-growth trajectory (the trace and
    ``Client.received`` only grow, and rounds get slower as they do), and
    counts repeat exactly.  *deadline_s* is only a safety net for a much
    slower machine or program: once three cycles are in, a further one
    starts only if it is expected to end by then.

    Every percentile is taken per round and the median over the rounds is
    reported: a scheduling hiccup lands in one round and can move that
    round's tail by an order of magnitude, and pooling the samples would
    let one such round decide the figure.
    """
    # Peak memory is read here, after a fixed amount of work (set-up plus
    # the warm-up cycle), not at exit, so that the safety net above cannot
    # change it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    driver.generator_lag = []
    links_before = driver.link_messages()
    delivered_before = len(driver.deliveries)
    rounds = []
    started = perf_counter()
    while len(rounds) < cycles:
        rounds.append(run_cycle(driver))
        elapsed = perf_counter() - started
        if len(rounds) >= MIN_CYCLES and elapsed + elapsed / len(rounds) > deadline_s:
            break
    delivered = len(driver.deliveries) - delivered_before
    results = {name: statistics.median(r[name] for r in rounds) for name, _ in ROUND_METRICS}
    results.update(
        cycles=len(rounds),
        measured_s=perf_counter() - started,
        deliveries=delivered,
        deliver_samples_per_round=min(r["deliver_samples"] for r in rounds),
        control_samples_per_round=min(r["control_samples"] for r in rounds),
        peak_rss_mb=peak_rss_mb,
        link_msgs_per_delivery=(driver.link_messages() - links_before) / max(1, delivered),
        generator_lag_p99_ms=(
            percentile(sorted(driver.generator_lag), 0.99) * 1e3 if driver.generator_lag else 0.0
        ),
    )
    return results
