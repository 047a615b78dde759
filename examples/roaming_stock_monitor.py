"""Stock quote monitoring carried across border brokers (physical mobility).

"Existing applications in a mobile environment": a trader watches a stock
symbol, closes the laptop, commutes, and opens a PDA attached to a
different border broker.  The application code is plain pub/sub — all
relocation handling (buffering at the old broker, fetch, replay,
garbage collection) happens inside the middleware.

Run with::

    python examples/roaming_stock_monitor.py
"""

from repro import Client, PubSubNetwork, balanced_tree_topology
from repro.filters.filter import Filter
from repro.metrics.qos import check_completeness, check_fifo, check_no_duplicates
from repro.mobility.driver import ItineraryDriver
from repro.mobility.models import shuttle_roaming
from repro.sim.rng import DeterministicRandom
from repro.workload.generators import PoissonPublisher


def main() -> None:
    # A small provider backbone: a balanced tree whose leaves are the
    # access points (border brokers) the trader can attach to.
    topology = balanced_tree_topology(depth=2, fanout=2)
    network = PubSubNetwork(topology, strategy="covering", latency=0.03)
    access_points = topology.leaves()
    print("access points:", ", ".join(access_points))

    exchange = network.add_client("exchange", access_points[0])
    exchange.advertise({"type": "quote"})

    # The trader's subscription: ordinary content-based filtering.
    trader = Client("trader")
    trader.subscribe({"type": "quote", "symbol": "REBECA"})

    # Commute: attach at each access point for 8 s, disconnected for 4 s
    # in between (office -> train -> home -> ...).
    commute = shuttle_roaming(
        access_points[1:], connected_time=8.0, disconnected_time=4.0, repetitions=2
    )
    driver = ItineraryDriver(network, trader)
    driver.schedule_roaming(commute)
    network.clients["trader"] = trader

    # The exchange publishes quotes for several symbols at ~5 per second.
    rng = DeterministicRandom(99)
    symbols = ["REBECA", "SIENA", "ELVIN", "JEDI"]
    symbol_rng = rng.fork(1)

    def quote(index, generator_rng):
        return {
            "type": "quote",
            "symbol": symbol_rng.choice(symbols),
            "price": round(50 + generator_rng.uniform(-5, 5), 2),
        }

    quotes = PoissonPublisher(rate=5.0, rng=rng.fork(2), attribute_factory=quote)
    published = quotes.drive(network, exchange, start=0.5, end=70.0)

    network.run_until(80.0)
    network.settle()

    print("quotes published (all symbols):", published)
    print("REBECA quotes delivered to the trader:", len(trader.received))
    windows = commute.connected_windows()
    print("connectivity windows:")
    for attach_time, detach_time, broker in windows:
        print(
            "  {} from t={:5.1f} to {}".format(
                broker,
                attach_time,
                "end" if detach_time is None else "t={:5.1f}".format(detach_time),
            )
        )

    watched = Filter({"type": "quote", "symbol": "REBECA"})
    completeness = check_completeness(network.trace, "trader", watched)
    duplicates = check_no_duplicates(network.trace, "trader")
    fifo = check_fifo(network.trace, "trader")
    print("complete despite roaming:", completeness.complete)
    print("no duplicates:", duplicates.clean)
    print("sender FIFO preserved:", fifo.ordered)
    relocations = [
        record
        for broker in network.brokers.values()
        for record in broker.physical.relocation_records
        if record.completed_at is not None
    ]
    if relocations:
        print(
            "relocations completed: {} (mean latency {:.3f} s)".format(
                len(relocations),
                sum(record.latency for record in relocations) / len(relocations),
            )
        )


if __name__ == "__main__":
    main()
