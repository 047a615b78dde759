"""Workload generators and the flat delivery oracle of the e2e benchmark.

Everything here is plain Python over plain data: a workload turns
``(name, seed, scale)`` into client placements, subscription *templates*
(``{"location": ("in", [...]), "cost": ("<", 4)}``), publication
attribute dicts and a schedule of control operations.  Nothing in this
module imports ``repro`` — the system under test only ever receives the
generated inputs through :class:`harness.Driver`, and the
:class:`Oracle` decides what should have been delivered with its own
fifty lines of dict/set logic, sharing no code with ``repro.filters`` or
``repro.dispatch``.

Seeds change *who* subscribes to *what* and the order of everything, but
the generators draw from shuffled cycles instead of independent random
values, so the aggregate amount of work (subscriptions per location,
deliveries per publish) is the same on every seed.  That keeps the
seed-to-seed spread of the timing metrics down to machine noise.
"""

import random
from collections import Counter

#: Marks the location attribute of a location-dependent subscription.
#: The harness replaces it with ``repro.MYLOC``; the oracle never sees it.
MYLOC_MARKER = "<myloc>"


# ---------------------------------------------------------------------------
# The flat oracle
# ---------------------------------------------------------------------------
def template_matches(template, attributes):
    """Brute-force conjunctive match of one template against one notification."""
    for name, spec in template.items():
        if name not in attributes:
            return False
        value = attributes[name]
        if not isinstance(spec, tuple):
            if value != spec:
                return False
        elif spec[0] == "in":
            if value not in spec[1]:
                return False
        elif spec[0] == "<":
            if not value < spec[1]:
                return False
        elif spec[0] == "between":
            if not spec[1] <= value <= spec[2]:
                return False
        else:
            raise ValueError("oracle does not know operator {!r}".format(spec[0]))
    return True


class Oracle:
    """What a correct pub/sub system delivers, computed the slow obvious way.

    The harness mirrors every subscribe / unsubscribe / location change
    into the oracle and reports every publication to it *at publish
    time*; the oracle matches the publication against all templates
    active at that moment and remembers the expected
    ``(client, subscription key, identity)`` triples.  Subscriptions are
    bucketed by the location values they accept purely to keep the
    brute-force pass affordable next to a 10-second measurement; every
    candidate is still checked with :func:`template_matches`.
    """

    def __init__(self):
        self.active = {}  # (client, key) -> template
        self._by_location = {}  # location value -> set of (client, key)
        self._unbucketed = set()
        self.expected = set()
        self.operations = 0
        self.operations_failed = 0

    def _buckets(self, template):
        spec = template.get("location")
        if spec is None or (isinstance(spec, tuple) and spec[0] != "in"):
            return None
        return spec[1] if isinstance(spec, tuple) else [spec]

    def subscribe(self, client, key, template):
        self.active[(client, key)] = template
        buckets = self._buckets(template)
        if buckets is None:
            self._unbucketed.add((client, key))
        else:
            for value in buckets:
                self._by_location.setdefault(value, set()).add((client, key))

    def unsubscribe(self, client, key):
        template = self.active.pop((client, key))
        buckets = self._buckets(template)
        if buckets is None:
            self._unbucketed.discard((client, key))
        else:
            for value in buckets:
                self._by_location[value].discard((client, key))

    def publish(self, identity, attributes):
        """Record who must receive the notification *identity*."""
        candidates = self._by_location.get(attributes.get("location"), ())
        for subscription in (*candidates, *self._unbucketed):
            if template_matches(self.active[subscription], attributes):
                self.expected.add((*subscription, identity))

    def verdict(self, delivered):
        """Compare ``(client, key, identity)`` deliveries, in arrival order."""
        counts = Counter(delivered)
        missing = len(self.expected.difference(counts))
        unexpected = sum(1 for triple in counts if triple not in self.expected)
        duplicate = sum(count - 1 for count in counts.values())
        out_of_order = 0
        newest = {}  # (client, key, publisher) -> highest publisher_seq seen
        for client, key, (publisher, seq) in delivered:
            stream = (client, key, publisher)
            if seq < newest.get(stream, 0):
                out_of_order += 1
            else:
                newest[stream] = seq
        failed = missing + unexpected + duplicate + out_of_order + self.operations_failed
        return {
            "expected": len(self.expected),
            "delivered": len(delivered),
            "missing": missing,
            "unexpected": unexpected,
            "duplicate": duplicate,
            "out_of_order": out_of_order,
            "operations": self.operations,
            "operations_failed": self.operations_failed,
            "attempted": len(self.expected) + self.operations,
            "failed": failed,
        }


# ---------------------------------------------------------------------------
# Generation helpers
# ---------------------------------------------------------------------------
def shuffled_cycle(rng, items):
    """Yield *items* forever, one freshly shuffled permutation after another."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def take_distinct(stream, count):
    """The next *count* distinct values of *stream* (skipping repeats)."""
    values = []
    while len(values) < count:
        value = next(stream)
        if value not in values:
            values.append(value)
    return values


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Workload:
    """Base class: a subscriber population, a publication stream, control rounds.

    ``sizes`` maps an attribute name to ``(count at scale 1, minimum)``;
    the benchmark runs at scale 1 and the smoke test far below it.  One
    *cycle* of the harness is one throughput round (``throughput_windows``
    windows of ``window`` bursts), one latency round (``latency_bursts``
    bursts, one in flight at a time, or an open-loop stream on the
    wall-clock backend) and one control round (:meth:`control_round`).
    Round sizes are set so that a cycle takes about 1.6 s on the 2-core
    reference container (``harness.CYCLE_SECONDS``): long enough for a
    per-round p99 over at least 1,500 samples, short enough for five rounds
    in an 8-second run.
    """

    name = ""
    backend = "sim"  # "sim" or "tcp" (asyncio, loopback TCP, wall clock)
    tree_depth = 3
    recovery = False
    window = 64  # bursts per closed-loop throughput window
    burst = 1  # same-instant publishes per burst
    open_loop_rate = None  # publishes per second, wall-clock backend only
    grid_side = 0  # side of the street grid, logical-mobility workloads only
    control = "subscribe"  # what the control metrics time on this workload
    sizes = {}

    def __init__(self, seed, scale=1.0):
        self.rng = random.Random("{}-{}".format(self.name, seed))
        self.leaves = 2**self.tree_depth
        for attribute, (count, minimum) in self.sizes.items():
            setattr(self, attribute, max(minimum, int(round(count * scale))))
        self._serial = 0

    def setup(self, driver):
        """Attach every client and issue the standing subscriptions."""
        raise NotImplementedError

    def next_publication(self):
        """One ``(producer id, attributes)`` pair; ``serial`` keeps them distinct."""
        raise NotImplementedError

    def bursts(self, count):
        """*count* bursts; a burst repeats one publication ``burst`` times."""
        out = []
        for _ in range(count):
            producer, attributes = self.next_publication()
            out.append([(producer, dict(attributes)) for _ in range(self.burst)])
        return out

    def control_round(self, driver):
        """The timed control operations of one cycle."""
        raise NotImplementedError


class ParkingWorkload(Workload):
    """One advertised producer on the last leaf, subscribers on all the others.

    Subclasses say what a subscription template looks like; every
    publication carries a location and a cost drawn from shuffled cycles.
    The control round times ``subscribe`` of a subscription nobody holds
    yet and then withdraws it again, so the population stays as set up.
    """

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.locations = ["loc-{:04d}".format(index) for index in range(self.location_count)]
        self._sub_locations = shuffled_cycle(self.rng, self.locations)
        self._pub_locations = shuffled_cycle(self.rng, self.locations)
        self._pub_costs = shuffled_cycle(self.rng, range(10))
        self.held = []  # (client, key) of every active subscription
        self._keys = 0

    def template(self):
        raise NotImplementedError

    def fresh_subscription(self):
        """``(client, key, template)`` of a subscription nobody holds yet."""
        self._keys += 1
        return next(self._client_cycle), "k{}".format(self._keys), self.template()

    def setup(self, driver):
        driver.add_client("producer", self.leaves - 1)
        driver.advertise("producer", {"service": "parking"})
        driver.settle()
        names = ["c{}".format(index) for index in range(self.clients)]
        for index, client in enumerate(names):
            driver.add_client(client, index % (self.leaves - 1))
        self._client_cycle = shuffled_cycle(self.rng, names)
        for _ in range(self.subscriptions):
            client, key, template = self.fresh_subscription()
            driver.subscribe(client, key, template)
            self.held.append((client, key))

    def next_publication(self):
        self._serial += 1
        return "producer", {
            "service": "parking",
            "location": next(self._pub_locations),
            "cost": next(self._pub_costs),
            "serial": self._serial,
        }

    def control_round(self, driver):
        for _ in range(self.control_ops):
            client, key, template = self.fresh_subscription()
            driver.timed_subscribe(client, key, template)
            driver.unsubscribe(client, key)


class MatchSelective(ParkingWorkload):
    """Many narrow, all-distinct filters and ~5 deliveries per publish: matching and per-hop broker
    handling dominate, local delivery is almost nothing.
    """

    name = "match_selective"
    sizes = {
        "clients": (840, 14),
        "subscriptions": (840, 14),
        "location_count": (280, 5),
        "throughput_windows": (20, 1),
        "latency_bursts": (1200, 5),
        "control_ops": (80, 3),
    }

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self._sizes = shuffled_cycle(self.rng, [1, 2, 3])
        self._costs = shuffled_cycle(self.rng, [None] * 7 + [3, 5, 7])

    def template(self):
        locations = take_distinct(self._sub_locations, next(self._sizes))
        template = {"service": "parking", "location": ("in", locations)}
        cost = next(self._costs)
        if cost is not None:
            template["cost"] = ("<", cost)
        return template


class FanoutBurst(ParkingWorkload):
    """Few wide overlapping filters and ~150 deliveries per publish, published in same-instant
    bursts of 5 identical notifications: Client.deliver and trace recording dominate, matching
    is negligible, and it alone reaches receive_batch's grouping.
    """

    name = "fanout_burst"
    tree_depth = 2
    window = 12
    burst = 5
    sizes = {
        "clients": (600, 12),
        "subscriptions": (600, 12),
        "location_count": (24, 24),
        "throughput_windows": (6, 1),
        "latency_bursts": (36, 3),
        "control_ops": (160, 3),
    }

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        # At scale 1 every (start, span) pair is held three or four times, so a
        # fresh subscription is always covered by an identical standing one and
        # the admin traffic of the control round does not depend on the seed.
        runs = [(start, span) for start in range(len(self.locations)) for span in range(3, 10)]
        self._runs = shuffled_cycle(self.rng, runs)

    def template(self):
        start, span = next(self._runs)
        ring = self.locations + self.locations
        return {"service": "parking", "location": ("in", ring[start : start + span])}


class WireTcp(MatchSelective):
    """The same kind of population on asyncio over loopback TCP and the wall clock: JSON codec and
    one task wake-up per frame dominate, which the sim workloads bypass entirely.
    """

    name = "wire_tcp"
    backend = "tcp"
    window = 32
    open_loop_rate = 200.0
    sizes = {
        "clients": (420, 14),
        "subscriptions": (420, 14),
        "location_count": (70, 5),
        "throughput_windows": (10, 1),
        "latency_bursts": (200, 5),
        "control_ops": (60, 3),
    }


class ChurnMixed(ParkingWorkload):
    """Subscribe and unsubscribe interleaved with publishes against a mixed in/</between
    population: covering, delta forwarding and dispatch-plan rebuilds compete with matching, so
    a matcher that pays at rebuild time loses here.
    """

    name = "churn_mixed"
    step_publishes = 4
    sizes = {
        "clients": (100, 6),
        "subscriptions": (1000, 12),
        "location_count": (170, 5),
        "throughput_windows": (8, 1),
        "latency_bursts": (400, 5),
        "control_ops": (50, 3),
    }

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        shapes = ["in"] * 5 + ["in<"] * 3 + ["in-between"] * 3 + ["between"]
        self._shapes = shuffled_cycle(self.rng, shapes)
        self._bounds = shuffled_cycle(self.rng, range(2, 9))

    def template(self):
        shape = next(self._shapes)
        template = {"service": "parking"}
        if shape.startswith("in"):
            template["location"] = ("in", take_distinct(self._sub_locations, 2))
        if shape.endswith("<"):
            template["cost"] = ("<", next(self._bounds))
        elif shape.endswith("between"):
            low = next(self._bounds)
            template["cost"] = ("between", low, low + 1)
        return template

    def control_round(self, driver):
        """Each step: one timed subscribe, one random unsubscribe, four publishes."""
        for _ in range(self.control_ops):
            client, key, template = self.fresh_subscription()
            driver.timed_subscribe(client, key, template)
            self.held.append((client, key))
            driver.unsubscribe(*self.held.pop(self.rng.randrange(len(self.held))))
            driver.publish_untimed(self.bursts(self.step_publishes))


class RoamPhysical(Workload):
    """Mobile subscribers detach, miss quotes and re-attach elsewhere: junction/fetch/replay,
    forwarding refresh, routing-table and dispatch-plan writes and journal appends, none of
    which the static workloads touch.
    """

    name = "roam_physical"
    recovery = True
    control = "handover"
    sizes = {
        "mobiles": (2000, 12),
        "symbol_count": (50, 4),
        "throughput_windows": (4, 1),
        "latency_bursts": (200, 5),
        "control_ops": (160, 3),  # handovers per round: 8 % of the mobiles
        "away_quotes": (80, 4),  # published while the movers are detached
    }

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.symbols = ["sym-{:02d}".format(index) for index in range(self.symbol_count)]
        self.subscriber_leaves = self.leaves - 2
        self._pub_symbols = shuffled_cycle(self.rng, self.symbols)
        self._producers = shuffled_cycle(self.rng, ["producer-a", "producer-b"])
        self._where = {}

    def setup(self, driver):
        for index, producer in enumerate(("producer-a", "producer-b")):
            driver.add_client(producer, self.subscriber_leaves + index)
            driver.advertise(producer, {"type": "quote"})
        driver.settle()
        symbols = shuffled_cycle(self.rng, self.symbols)
        for index in range(self.mobiles):
            client = "m{}".format(index)
            self._where[client] = index % self.subscriber_leaves
            driver.add_client(client, self._where[client])
            driver.subscribe(client, "s", {"type": "quote", "symbol": next(symbols)})
        self._movers = shuffled_cycle(self.rng, sorted(self._where))

    def next_publication(self):
        self._serial += 1
        return next(self._producers), {
            "type": "quote",
            "symbol": next(self._pub_symbols),
            "price": self._serial % 97,
            "serial": self._serial,
        }

    def control_round(self, driver):
        """Movers detach, quotes are published behind their backs, each re-attaches."""
        movers = take_distinct(self._movers, min(self.control_ops, self.mobiles))
        for client in movers:
            driver.detach(client)
        driver.publish_untimed(self.bursts(self.away_quotes))
        for client in movers:
            hop = self.rng.randrange(1, self.subscriber_leaves)
            self._where[client] = (self._where[client] + hop) % self.subscriber_leaves
            driver.timed_move(client, self._where[client])


class RoamLogical(Workload):
    """Cars with location-dependent subscriptions move across a street grid: ploc filter chains and
    LocationUpdate traffic, the Section 5 path, and the workload where link messages per
    delivery is the paper's headline cost.
    """

    name = "roam_logical"
    control = "location_update"
    sizes = {
        "cars": (1200, 12),
        "grid_side": (16, 4),
        "throughput_windows": (16, 1),
        "latency_bursts": (1400, 5),
        "control_ops": (100, 3),  # location updates per round: 8 % of the cars
        "round_publishes": (80, 4),  # published before the cars move
    }

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        side = range(self.grid_side)
        self.blocks = ["r{}c{}".format(row, col) for row in side for col in side]
        self._pub_blocks = shuffled_cycle(self.rng, self.blocks)
        self._sensors = shuffled_cycle(self.rng, ["sensor-a", "sensor-b"])
        self._at = {}

    def _neighbours(self, block):
        row, col = (int(part) for part in block[1:].split("c"))
        steps = ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1))
        side = range(self.grid_side)
        return ["r{}c{}".format(r, c) for r, c in steps if r in side and c in side]

    def setup(self, driver):
        for index, sensor in enumerate(("sensor-a", "sensor-b")):
            driver.add_client(sensor, self.leaves - 2 + index)
            driver.advertise(sensor, {"service": "traffic"})
        driver.settle()
        blocks = shuffled_cycle(self.rng, self.blocks)
        template = {"service": "traffic", "location": MYLOC_MARKER}
        for index in range(self.cars):
            car = "car{}".format(index)
            self._at[car] = next(blocks)
            driver.add_client(car, index % (self.leaves - 2))
            driver.subscribe_logical(car, "s", template, self._at[car])
        self._drivers = shuffled_cycle(self.rng, sorted(self._at))

    def next_publication(self):
        self._serial += 1
        return next(self._sensors), {
            "service": "traffic",
            "location": next(self._pub_blocks),
            "serial": self._serial,
        }

    def control_round(self, driver):
        """Sensors publish, then a tenth of the cars drive to a neighbouring block."""
        driver.publish_untimed(self.bursts(self.round_publishes))
        for car in take_distinct(self._drivers, min(self.control_ops, self.cars)):
            self._at[car] = self.rng.choice(self._neighbours(self._at[car]))
            driver.timed_set_location(car, "s", self._at[car])


WORKLOADS = {
    cls.name: cls
    for cls in (MatchSelective, FanoutBurst, WireTcp, RoamPhysical, RoamLogical, ChurnMixed)
}


def make_workload(name, seed, scale=1.0):
    if name not in WORKLOADS:
        raise ValueError("unknown workload {!r}; choose from {}".format(name, sorted(WORKLOADS)))
    return WORKLOADS[name](seed, scale)
