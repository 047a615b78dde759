"""Figure 5 — the relocation walk-through (one and several producers).

Figure 5 of the paper illustrates the relocation protocol on a network of
brokers 1..8 (plus 9 in the multi-producer variant): client C moves from
the border broker 6 to border broker 1; the junction broker 4 detects the
old path, sends the fetch request toward 6, and the buffered notifications
are replayed to the new location while new notifications already travel
the new path.

``run()`` executes exactly that scenario on the simulator (for one or two
producers), records the relocation milestones, and verifies the QoS
guarantees the paper claims for it: completeness, no duplicates,
sender-FIFO order, and garbage collection of the virtual counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.broker.client import Client
from repro.experiments.backends import Backend, build_network
from repro.filters.filter import Filter
from repro.metrics.qos import check_completeness, check_fifo, check_no_duplicates
from repro.topology.graph import BrokerGraph


def figure5_topology() -> BrokerGraph:
    """The broker graph sketched in Figure 5.

    Brokers 1..8 form a tree; broker 1 is the new border broker, broker 6
    the old one, broker 4 the junction where old and new delivery paths
    meet.  Producer P attaches at broker 3 (and a second producer at
    broker 9 in the multi-producer variant).
    """
    return BrokerGraph.from_edges(
        [
            ("B1", "B2"),
            ("B2", "B3"),
            ("B2", "B7"),
            ("B3", "B4"),
            ("B7", "B8"),
            ("B4", "B5"),
            ("B5", "B6"),
        ]
    )


@dataclass
class Fig5Result:
    """Milestones and QoS outcome of the walk-through."""

    producers: int
    delivered_before_move: int
    buffered_at_old_border: int
    replayed: int
    delivered_total: int
    relocation_latency: Optional[float]
    complete: bool
    no_duplicates: bool
    fifo: bool
    counterpart_garbage_collected: bool

    @property
    def all_guarantees_hold(self) -> bool:
        """Completeness, exactly-once, FIFO and garbage collection all hold."""
        return (
            self.complete
            and self.no_duplicates
            and self.fifo
            and self.counterpart_garbage_collected
        )

    def format_text(self) -> str:
        """Render the milestone summary."""
        lines = [
            "producers:                    {}".format(self.producers),
            "delivered before the move:    {}".format(self.delivered_before_move),
            "buffered at the old border:   {}".format(self.buffered_at_old_border),
            "replayed after relocation:    {}".format(self.replayed),
            "delivered in total:           {}".format(self.delivered_total),
            "relocation latency:           {}".format(
                "{:.3f} s".format(self.relocation_latency)
                if self.relocation_latency is not None
                else "n/a"
            ),
            "completeness:                 {}".format(self.complete),
            "no duplicates:                {}".format(self.no_duplicates),
            "sender FIFO:                  {}".format(self.fifo),
            "counterpart garbage collected:{}".format(self.counterpart_garbage_collected),
        ]
        return "\n".join(lines)


def run(
    producers: int = 1,
    latency: float = 0.05,
    notifications_per_phase: int = 5,
    backend: Backend = Backend(),
) -> Fig5Result:
    """Execute the Figure 5 walk-through with one or two producers."""
    if producers not in (1, 2):
        raise ValueError("the Figure 5 scenario supports one or two producers")
    graph = figure5_topology()
    if producers == 2:
        graph.add_edge("B3", "B9")
    network = build_network(graph, strategy="covering", latency=latency, backend=backend)

    producer_clients: List[Client] = []
    attachments = [("P1", "B3")] if producers == 1 else [("P1", "B3"), ("P2", "B9")]
    for client_id, broker_name in attachments:
        producer = network.add_client(client_id, broker_name)
        producer.advertise({"topic": "news"})
        producer_clients.append(producer)

    consumer = network.add_client("C", "B6")
    subscription_id = consumer.subscribe({"topic": "news"})
    network.settle()

    def publish_round(tag: str) -> None:
        for producer in producer_clients:
            for index in range(notifications_per_phase):
                producer.publish({"topic": "news", "phase": tag, "index": index})

    # Phase 1: connected at the old location.
    publish_round("connected-old")
    network.settle()
    delivered_before_move = len(consumer.received)

    # Phase 2: the client is disconnected; the virtual counterpart buffers.
    consumer.detach()
    publish_round("disconnected")
    network.settle()
    counterpart = network.broker("B6").physical.counterpart_for("C", subscription_id)
    buffered = counterpart.buffered_count() if counterpart is not None else 0

    # Phase 3: reconnect at the new location (steps 1-6 of Figure 5).
    consumer.move_to(network.broker("B1"))
    publish_round("connected-new")
    network.settle()

    relocations = network.broker("B1").physical.relocation_records
    relocation = relocations[-1] if relocations else None

    filter_ = Filter({"topic": "news"})
    completeness = check_completeness(network.trace, "C", filter_)
    duplicates = check_no_duplicates(network.trace, "C")
    fifo = check_fifo(network.trace, "C")

    counterparts_collected = not network.broker("B6").physical.counterparts
    network.close()
    return Fig5Result(
        producers=producers,
        delivered_before_move=delivered_before_move,
        buffered_at_old_border=buffered,
        replayed=relocation.replayed if relocation is not None else 0,
        delivered_total=len(consumer.received),
        relocation_latency=relocation.latency if relocation is not None else None,
        complete=completeness.complete,
        no_duplicates=duplicates.clean,
        fifo=fifo.ordered,
        counterpart_garbage_collected=counterparts_collected,
    )
