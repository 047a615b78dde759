"""Flat specification of what a pub/sub network delivers (Sections 2, 3.2, 4.1).

It knows nothing of brokers, routing tables or relocation: only clients,
their subscriptions and advertisements (plain template dicts), the
notifications published and the moments the network settled.  From
those it keeps, per subscription, the notifications it **must** and the
ones it **may** deliver:

* a subscription is *established* at the first settle at which its
  client is attached; a publisher's advertisement is established at the
  first settle after it was issued, until it is withdrawn;
* a matching notification is a must if, when it is published, the
  subscription is established and so is an advertisement of its
  publisher that matches it (Section 2.2 routes subscriptions only
  toward advertisers);
* any other matching notification is a may if it was published while
  the subscription existed, or before the subscribe but still in flight
  (no settle since);
* on unsubscribe, the subscription's outstanding musts become mays; on
  unadvertise, so do the outstanding musts of that publisher.

Every delivery is checked at once: nothing twice, nothing outside
must ∪ may, and per publisher in publication order (the sender-FIFO of
Section 3.2).  Every settle checks that each must of an attached client
has arrived: completeness, also across a relocation (Section 4.1).

A template maps an attribute name to a value (equality) or to an
``("in", values)`` / ``("<", bound)`` pair; it matches a notification
that has every named attribute and satisfies every constraint.  The
module imports nothing from the package under test.
"""


def matches(template, attributes):
    """Whether the notification *attributes* satisfy every constraint of *template*."""
    for name, constraint in template.items():
        if name not in attributes:
            return False
        value = attributes[name]
        if isinstance(constraint, tuple) and constraint[0] == "in":
            if value not in constraint[1]:
                return False
        elif isinstance(constraint, tuple) and constraint[0] == "<":
            if not value < constraint[1]:
                return False
        elif value != constraint:
            return False
    return True


class NetworkSpec:
    """Musts, mays and deliveries of every subscription, by ``(client, subscription)``.

    A notification is named by its identity ``(publisher, publisher_seq)``.
    """

    def __init__(self):
        self.attached = set()
        self.templates = {}
        #: publisher -> its advertisement, issued / established at the last settle.
        self.advertised = {}
        self.established_adverts = {}
        self.established = set()
        self.published = {}
        self.in_flight = set()
        self.must = {}
        self.may = {}
        self.delivered = {}
        self.last_from = {}

    def attach(self, client):
        self.attached.add(client)

    def detach(self, client):
        self.attached.discard(client)

    def advertise(self, publisher, template):
        self.advertised[publisher] = dict(template)

    def unadvertise(self, publisher):
        del self.advertised[publisher]
        self.established_adverts.pop(publisher, None)
        for key, must in self.must.items():
            outstanding = {i for i in must - self.delivered[key] if i[0] == publisher}
            must -= outstanding
            self.may[key] |= outstanding

    def subscribe(self, client, subscription, template):
        key = (client, subscription)
        self.templates[key] = dict(template)
        self.must[key] = set()
        self.may[key] = {
            identity for identity in self.in_flight if matches(template, self.published[identity])
        }
        self.delivered[key] = set()

    def unsubscribe(self, client, subscription):
        key = (client, subscription)
        del self.templates[key]
        self.established.discard(key)
        self.may[key] |= self.must[key] - self.delivered[key]
        self.must[key] = set()

    def publish(self, identity, attributes):
        self.published[identity] = dict(attributes)
        self.in_flight.add(identity)
        advert = self.established_adverts.get(identity[0])
        advertised = advert is not None and matches(advert, attributes)
        for key, template in self.templates.items():
            if matches(template, attributes):
                must = advertised and key in self.established
                (self.must if must else self.may)[key].add(identity)

    def deliver(self, client, subscription, identity):
        """Check one delivery the moment the client is notified."""
        key = (client, subscription)
        where = "{} delivered to {}/{}".format(identity, client, subscription)
        assert key in self.delivered, where + ": no such subscription"
        assert identity not in self.delivered[key], where + " twice"
        assert identity in self.must[key] | self.may[key], where + ": neither a must nor a may"
        publisher, sequence = identity
        last = self.last_from.get((key, publisher), 0)
        assert sequence > last, where + " after {}'s #{}".format(publisher, last)
        self.last_from[key, publisher] = sequence
        self.delivered[key].add(identity)

    def settle(self):
        """The network ran until nothing was in flight."""
        for key, must in sorted(self.must.items()):
            if key[0] in self.attached:
                missing = must - self.delivered[key]
                assert not missing, "{}/{} never received {}".format(*key, sorted(missing))
        self.in_flight.clear()
        self.established_adverts = dict(self.advertised)
        for key in self.templates:
            if key[0] in self.attached:
                self.established.add(key)
