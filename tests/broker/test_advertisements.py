"""Tests for advertisement handling and advertisement-restricted forwarding."""


from repro.broker.base import BrokerConfig
from repro.broker.network import PubSubNetwork
from repro.topology.builders import line_topology, star_topology


class TestAdvertisementPropagation:
    def test_advertisements_reach_all_brokers(self):
        network = PubSubNetwork(line_topology(4), strategy="covering", latency=0.01)
        producer = network.add_client("producer", "B1")
        producer.advertise({"topic": "news"})
        network.settle()
        for name in ("B2", "B3", "B4"):
            assert len(network.broker(name).advertisement_table) >= 1

    def test_unadvertise_cleans_up(self):
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        producer = network.add_client("producer", "B1")
        advertisement = producer.advertise({"topic": "news"})
        network.settle()
        producer.unadvertise(advertisement)
        network.settle()
        for name in ("B2", "B3"):
            assert len(network.broker(name).advertisement_table) == 0

    def test_unadvertise_keeps_another_source_of_the_same_filter(self):
        """A neighbour holds one row per filter for every source behind a
        broker; withdrawing one source must not withdraw that row."""
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        far = network.add_client("far", "B3")
        near = network.add_client("near", "B2")
        far.advertise({"topic": "news"})
        advertisement = near.advertise({"topic": "news"})
        consumer = network.add_client("consumer", "B1")
        consumer.subscribe({"topic": "news"})
        network.settle()
        near.unadvertise(advertisement)
        network.settle()
        assert len(network.broker("B1").advertisement_table) == 1
        far.publish({"topic": "news"})
        network.settle()
        assert len(consumer.received) == 1

    def test_a_filter_goes_to_a_neighbour_once_whatever_its_sources(self):
        """Five publishers behind B3 advertise one filter.  B2 files every
        source under B3, so B3 sends it one Advertise, and one Unadvertise
        with the last source."""
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        publishers = [network.add_client("P{}".format(index), "B3") for index in range(5)]
        advertisements = [publisher.advertise({"topic": "news"}) for publisher in publishers]
        network.settle()

        def sent(message_type):
            return [
                record
                for record in network.trace.link_records
                if (record.source, record.target, record.message_type)
                == ("B3", "B2", message_type)
            ]

        assert len(sent("Advertise")) == 1
        assert len(network.broker("B1").advertisement_table) == 1
        for publisher, advertisement in zip(publishers[:4], advertisements):
            publisher.unadvertise(advertisement)
        network.settle()
        assert sent("Unadvertise") == []
        publishers[4].unadvertise(advertisements[4])
        network.settle()
        assert len(sent("Unadvertise")) == 1
        assert len(network.broker("B1").advertisement_table) == 0

    def test_subscription_issued_before_advertisement_still_connects(self):
        """Late advertisements trigger forwarding of already-registered subscriptions."""
        network = PubSubNetwork(line_topology(4), strategy="covering", latency=0.05)
        consumer = network.add_client("consumer", "B1")
        consumer.subscribe({"topic": "news"})
        network.settle()
        # Producer appears only afterwards.
        producer = network.add_client("producer", "B4")
        producer.advertise({"topic": "news"})
        network.settle()
        producer.publish({"topic": "news", "index": 1})
        network.settle()
        assert len(consumer.received) == 1


class TestAdvertisementRestrictedForwarding:
    def test_subscriptions_only_flow_toward_matching_advertisers(self):
        """With advertisements on, branches without matching producers never
        see the subscription."""
        network = PubSubNetwork(star_topology(3, hub="hub"), strategy="covering", latency=0.01)
        producer = network.add_client("producer", "B1")
        producer.advertise({"topic": "news"})
        bystander_broker = "B3"
        consumer = network.add_client("consumer", "B2")
        consumer.subscribe({"topic": "news"})
        network.settle()
        # The hub must forward the subscription toward B1 (the advertiser)
        # but not toward B3 (no matching advertisement from there).
        hub = network.broker("hub")
        assert len(hub.forwarding.states["B1"].forwarded) == 1
        assert len(hub.forwarding.states[bystander_broker].forwarded) == 0

    def test_without_advertisements_subscriptions_flood(self):
        config = BrokerConfig(use_advertisements=False)
        network = PubSubNetwork(
            star_topology(3, hub="hub"), strategy="covering", latency=0.01, config=config
        )
        consumer = network.add_client("consumer", "B2")
        consumer.subscribe({"topic": "news"})
        network.settle()
        hub = network.broker("hub")
        assert len(hub.forwarding.states["B1"].forwarded) == 1
        assert len(hub.forwarding.states["B3"].forwarded) == 1

    def test_delivery_works_without_advertisements(self):
        config = BrokerConfig(use_advertisements=False)
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01, config=config)
        producer = network.add_client("producer", "B3")
        consumer = network.add_client("consumer", "B1")
        consumer.subscribe({"topic": "news"})
        network.settle()
        producer.publish({"topic": "news"})
        network.settle()
        assert len(consumer.received) == 1

    def test_unrelated_advertisement_does_not_open_a_path(self):
        network = PubSubNetwork(star_topology(3, hub="hub"), strategy="covering", latency=0.01)
        noise_producer = network.add_client("noise", "B3")
        noise_producer.advertise({"topic": "weather"})
        consumer = network.add_client("consumer", "B2")
        consumer.subscribe({"topic": "news"})
        network.settle()
        hub = network.broker("hub")
        assert len(hub.forwarding.states["B3"].forwarded) == 0
