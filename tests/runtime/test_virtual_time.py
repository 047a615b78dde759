"""Virtual-time asyncio backend: clock semantics and edge cases.

The virtual clock *is* the simulator's event queue, so it must behave
exactly like the sim backend: same past-scheduling errors, same
time/insertion-order execution, same inclusive ``run_until`` boundary,
same cancellation surface.  These tests pin each rule directly against
the simulator — every scenario runs on both and compares the observable
outcome — plus the edge cases
the drive loop has to get right: a timer at exactly ``now``, cascades
where timers enqueue frames that schedule further timers, and a timer
firing while a broker is cut off by partitions.
"""

import pytest

from repro.broker.network import PubSubNetwork
from repro.runtime.aio import AioRuntime
from repro.runtime.factory import make_runtime
from repro.runtime.faults import FaultModel
from repro.runtime.sim import SimRuntime
from repro.sim.engine import SimulationError
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import line_topology


def _virtual_runtime():
    return AioRuntime(virtual_time=True)


#: label -> (runtime constructor, delay unit) for clock-semantics tests.
#: The unit scales the scheduled delays: simulated/virtual clocks use
#: whole seconds for readable timestamps; the wall clock uses
#: milliseconds so the test does not actually sleep for seconds.
CLOCK_BACKENDS = {
    "sim": (SimRuntime, 1.0),
    "aio-virtual": (_virtual_runtime, 1.0),
    "aio-wall": (AioRuntime, 0.01),
}


# ---------------------------------------------------------------------------
# Scheduling semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", ["sim", "aio-virtual"])
def test_past_scheduling_rejected_on_virtual_clock(label):
    """Both virtual clocks reject the past with the simulator's exception."""
    make, _ = CLOCK_BACKENDS[label]
    runtime = make()
    clock = runtime.clock
    with pytest.raises(SimulationError):
        clock.schedule(-0.5, lambda: None)
    clock.schedule(1.0, lambda: None)
    runtime.settle()
    assert clock.now == 1.0
    with pytest.raises(SimulationError):
        clock.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        runtime.run_until(0.5)
    assert clock.now == 1.0
    runtime.close()


def test_timer_at_exactly_now_runs_after_queued_same_time_timers():
    """``schedule_at(now)`` is legal and runs after already-queued work.

    This mirrors the simulator: ties are broken by insertion order, so a
    callback scheduled *at* the current instant from within another
    callback still runs in this settle, after everything queued earlier
    for the same instant.
    """

    def scenario(clock):
        fired = []
        clock.schedule_at(1.0, lambda: fired.append("first"))
        clock.schedule_at(
            1.0,
            lambda: (
                fired.append("second"),
                clock.schedule_at(clock.now, lambda: fired.append("at-now")),
            )[0],
        )
        return fired

    sim = SimRuntime()
    sim_fired = scenario(sim.simulator)
    sim.settle()

    aio = _virtual_runtime()
    aio_fired = scenario(aio.clock)
    aio.settle()
    aio.close()

    assert sim_fired == ["first", "second", "at-now"]
    assert aio_fired == sim_fired
    assert aio.clock.now == sim.simulator.now == 1.0


def test_run_until_is_inclusive_and_leaves_later_timers_pending():
    def scenario(runtime):
        fired = []
        for time in (1.0, 2.0, 3.0):
            runtime.clock.schedule_at(time, fired.append, time)
        runtime.run_until(2.0)
        mid = (list(fired), runtime.clock.now)
        runtime.settle()
        return mid, (list(fired), runtime.clock.now)

    sim_mid, sim_final = scenario(SimRuntime())
    aio = _virtual_runtime()
    aio_mid, aio_final = scenario(aio)
    aio.close()

    assert sim_mid == ([1.0, 2.0], 2.0)  # boundary timer fires, clock stops at 2
    assert aio_mid == sim_mid
    assert sim_final == ([1.0, 2.0, 3.0], 3.0)
    assert aio_final == sim_final


def test_run_until_advances_clock_with_empty_queue():
    runtime = _virtual_runtime()
    runtime.run_until(5.0)
    assert runtime.clock.now == 5.0
    runtime.close()


# ---------------------------------------------------------------------------
# Cancellation (satellite: unified ScheduledCall handles on every backend)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", sorted(CLOCK_BACKENDS))
def test_cancelled_timer_never_fires_on_any_backend(label):
    """Every backend returns the same handle surface, and honours it.

    One of three scheduled callbacks is cancelled before execution; on
    every backend exactly the other two fire, the handle reports
    ``cancelled``, and cancelling twice is a harmless no-op.
    """
    make, unit = CLOCK_BACKENDS[label]
    runtime = make()
    fired = []
    clock = runtime.clock
    handles = [clock.schedule(index * unit, fired.append, index) for index in (1, 2, 3)]
    victim = handles[1]
    assert victim.cancelled is False
    victim.cancel()
    victim.cancel()  # idempotent
    assert victim.cancelled is True

    if label == "aio-wall":
        runtime.run_until(5 * unit)  # the wall clock cannot fast-forward
    else:
        runtime.settle()
    runtime.close()

    assert fired == [1, 3], "backend {}".format(label)
    assert handles[0].cancelled is False


# ---------------------------------------------------------------------------
# Cascades: timers -> frames -> timers, against the simulator
# ---------------------------------------------------------------------------


def _cascade_scenario(network):
    """A timer publishes; each delivery schedules another publish.

    Exercises the drive loop's alternation: the timer's frames must
    drain before the next timer runs, and frames delivered mid-cascade
    schedule further timers that extend the queue being drained.
    """
    producer = network.add_client("producer", "B1")
    producer.advertise({"topic": "chain"})
    echoes = []

    def on_notify(subscription_id, notification, sequence):
        hop = notification.attributes["hop"]
        echoes.append((network.now, hop))
        if hop < 3:
            network.clock.schedule(
                0.5, producer.publish, {"topic": "chain", "hop": hop + 1}
            )

    consumer = network.add_client("consumer", "B3", notify=on_notify)
    consumer.subscribe({"topic": "chain"})
    network.settle()
    network.clock.schedule(1.0, producer.publish, {"topic": "chain", "hop": 0})
    network.settle()
    return echoes, network.now, network.total_messages()


@pytest.mark.parametrize("backend", ["aio-memory", "aio-tcp"])
def test_cascade_quiescence_matches_simulator(backend):
    sim_outcome = _cascade_scenario(
        PubSubNetwork(line_topology(3), strategy="covering", latency=0.05)
    )
    network = PubSubNetwork(
        line_topology(3), strategy="covering", runtime=make_runtime(backend, latency=0.05)
    )
    try:
        aio_outcome = _cascade_scenario(network)
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    finally:
        network.close()
    assert aio_outcome == sim_outcome
    echoes = aio_outcome[0]
    assert [hop for _, hop in echoes] == [0, 1, 2, 3]  # the whole chain ran


# ---------------------------------------------------------------------------
# A broker cut off while a timer is pending
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["aio-memory", "aio-tcp"])
def test_partition_window_during_pending_timer(backend):
    """A publish timer fires while B1 is cut off: dropped, attributed.

    The timer itself still runs (time advances through the window); the
    message it sends towards the cut-off broker is dropped at send time
    with reason ``"partition"``, and traffic flows again once the
    window closes.  (``tests/runtime/test_aio_broker_down.py`` covers
    the rest of the window semantics.)
    """
    network = PubSubNetwork(line_topology(2), strategy="covering", runtime=make_runtime(backend))
    faults = FaultModel(DeterministicRandom(1))
    for link in network.links.values():
        link.fault_model = faults
    try:
        producer = network.add_client("producer", "B2")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("consumer", "B1")
        consumer.subscribe({"topic": "news"})
        network.settle()

        settled_at = network.now
        network.clock.schedule(1.0, producer.publish, {"topic": "news", "phase": "down"})
        for source, target in network.links:  # both directions of B1 - B2
            faults.partition(source, target, settled_at, settled_at + 2.0)
        network.settle()
        assert network.clock.now == settled_at + 1.0  # the timer ran...
        assert len(consumer.received) == 0  # ...but nothing got through
        drops = network.trace.drops(reason="partition")
        assert [(drop.source, drop.target) for drop in drops] == [("B2", "B1")]

        network.clock.schedule(1.5, producer.publish, {"topic": "news", "phase": "up"})
        network.settle()
        assert len(consumer.received) == 1  # traffic flows again
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    finally:
        network.close()


# ---------------------------------------------------------------------------
# Construction errors
# ---------------------------------------------------------------------------


def test_latency_requires_virtual_time():
    with pytest.raises(ValueError):
        AioRuntime(latency=0.1)
