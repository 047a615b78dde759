#!/usr/bin/env python3
"""Residency census: what each ``repro`` module keeps alive per routing row.

    python3 benchmarks/residency.py --workload churn_mixed [--seed 1] [--scale 1.0] [--lines N]
        [--holders]

Runs the set-up and the warm-up cycle of one end-to-end workload (the
fixed amount of work after which ``benchmarks/e2e`` reads ``peak_rss_mb``)
under ``tracemalloc``, then prints the live bytes allocated by each
``repro`` module, in total and per subscription routing row over all
brokers, and the process's ``ru_maxrss``.  An allocation counts under
the innermost frame of its traceback (``tracemalloc`` keeps
:data:`FRAMES` of them) that is not the standard library's, if that frame
runs ``repro`` code: what a ``repro`` call has the standard library build
— the ``json`` encoder's texts, say — counts under that call's module,
and what a callback of the harness builds counts nowhere.  ``--lines N``
adds the N largest ``repro`` allocation sites (file:line, live bytes,
live blocks, bytes per routing row), so a memory claim can name the
structures, not just the modules.
``tracemalloc`` keeps its own bookkeeping, so ``ru_maxrss`` here reads
higher than in an untraced run; compare it only with other census runs.
The workloads and the harness are imported from ``benchmarks/e2e`` and
used as they are.

An allocation site is the first allocator of a block: not what keeps
the block alive, and not always the line that built the object in it.
CPython's dict free lists hand a freed dict's memory on to a dict built
later, and ``tracemalloc`` keeps the site of the first: on roam_physical
``filters/filter.py:56``, a dict that never outlives ``Filter.__init__``,
reads one live block per client.  A module total moves with such a site.
``--holders`` names what keeps the memory alive: among the objects the
network holds after the warm-up (``sys.getsizeof`` each), for the ten
types with the most bytes and for every ``Message`` instance, it prints
the bytes per owner — the trace's link columns, its delivery columns,
the routing tables, the forwarding states, the journals and the clients
— and the bytes no owner holds ("none").  Each object goes to the owner
nearest to it: the one a walk up its referrers meets first,
found as one breadth-first walk down from every owner at once.  That walk
passes none of the network's own parts (the network, its trace, runtime,
brokers and links), since those hold every owner; a second walk from
those parts finds the rest.  No walk passes a class, module, function
or frame.
"""

import argparse
import gc
import os
import resource
import sys
import sysconfig
import tracemalloc
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

# Imported before the census starts, so module set-up is not counted.
import repro  # noqa: E402
from repro.messages.base import Message  # noqa: E402

#: Frames ``tracemalloc`` keeps per allocation: enough to reach the
#: ``repro`` call behind what the standard library allocates for it.
FRAMES = 10
_REPRO = os.path.dirname(repro.__file__) + os.sep
#: Where standard-library frames live (``<frozen ...>`` too).
_STDLIB = tuple({sysconfig.get_path(name) + os.sep for name in ("stdlib", "platstdlib")}) + ("<",)
_IMPORTING = "<frozen importlib"

#: The named owners ``--holders`` attributes objects to, in tie-break order.
OWNERS = (
    "trace links",
    "trace deliveries",
    "routing table",
    "forwarding",
    "journal",
    "client",
)
#: Objects a holder walk never passes: each leads to the whole process.
_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    types.FrameType,
    types.CodeType,
)


def _owner_roots(network):
    """The objects each owner is, per name of :data:`OWNERS`."""
    brokers = list(network.brokers.values())
    return {
        "trace links": [network.trace.link_columns],
        "trace deliveries": [network.trace.delivery_columns],
        "routing table": [
            table for b in brokers for table in (b.subscription_table, b.advertisement_table)
        ],
        "forwarding": [broker.forwarding for broker in brokers],
        "journal": [broker.recovery for broker in brokers if broker.recovery is not None],
        "client": list(network.clients.values()),
    }


def _network_parts(network):
    """The network, its attributes (trace, runtime ...), brokers, their parts and links."""
    parts = [network, *vars(network).values(), *network.links.values()]
    for broker in network.brokers.values():
        parts += [broker, *vars(broker).values()]
    return parts


def _walk(held, frontier, barrier):
    """Label everything *frontier* reaches with its holder's label, breadth first.

    *held* maps ``id(object)`` to ``(label, object)``.
    """
    while frontier:
        reached = []
        for holder in frontier:
            name = held[id(holder)][0]
            for referent in gc.get_referents(holder):
                key = id(referent)
                if key in held or key in barrier or isinstance(referent, _OPAQUE):
                    continue
                held[key] = (name, referent)
                reached.append(referent)
        frontier = reached


def _nearest_owners(network):
    """``(owner, object)`` for every object the network holds; ``"none"`` if no owner does."""
    held, frontier = {}, []
    for name, roots in _owner_roots(network).items():
        for root in roots:
            if id(root) not in held:
                held[id(root)] = (name, root)
                frontier.append(root)
    parts = _network_parts(network)
    _walk(held, frontier, {id(part) for part in parts})
    parts = [part for part in parts if id(part) not in held]
    held.update((id(part), ("none", part)) for part in parts)
    _walk(held, parts, ())
    return held.values()


def holders(network, top=10):
    """``[(label, objects, bytes, bytes per owner)]``: the *top* types by bytes, then messages."""
    per_type = {}
    messages = [0, 0, Counter()]
    for owner, obj in _nearest_owners(network):
        size = sys.getsizeof(obj)
        rows = [per_type.setdefault(type(obj), [0, 0, Counter()])]
        if isinstance(obj, Message):
            rows.append(messages)
        for row in rows:
            row[0] += 1
            row[1] += size
            row[2][owner] += size
    largest = sorted(per_type.items(), key=lambda item: -item[1][1])[:top]
    table = [(kind.__qualname__, *row) for kind, row in largest]
    return table + [("Message (every class)", *messages)]


def _print_holders(table):
    columns = OWNERS + ("none",)
    print("{:<28} {:>9} {:>11}".format("type", "objects", "bytes"), end="")
    print("".join(" {:>16}".format(column) for column in columns))
    for label, objects, size, owners in table:
        print("{:<28} {:>9,} {:>11,}".format(label[:28], objects, size), end="")
        print("".join(" {:>16,}".format(owners[column]) for column in columns))


def _repro_frame(traceback):
    """The innermost frame of *traceback* outside the standard library, if in ``repro``.

    ``None`` too for an allocation made while a module is imported: a
    backend the harness imports on first use is module set-up, not state.
    """
    if any(frame.filename.startswith(_IMPORTING) for frame in traceback):
        return None
    for frame in reversed(traceback):
        if not frame.filename.startswith(_STDLIB):
            return frame if frame.filename.startswith(_REPRO) else None
    return None


def census(name, seed, scale, with_holders=False):
    """Live ``repro`` allocations after set-up plus warm-up, and the row count.

    Returns the live bytes per module, ``[(site, bytes, blocks)]`` per
    allocation site (largest first), the number of subscription routing
    rows and, *with_holders*, the :func:`holders` table (else ``None``).
    A module or site is ``repro/<path>`` of the frame :func:`_repro_frame` names.
    """
    tracemalloc.start(FRAMES)
    try:
        driver, _ = harness.set_up(make_workload(name, seed, scale))
        harness.warm_up(driver)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    rows = sum(driver.network.routing_table_sizes().values())
    held = holders(driver.network) if with_holders else None
    driver.close()
    modules, sites = Counter(), {}
    for trace in snapshot.traces:
        frame = _repro_frame(trace.traceback)
        if frame is None:
            continue
        module = "repro" + os.sep + frame.filename[len(_REPRO) :]
        modules[module] += trace.size
        site = sites.setdefault("{}:{}".format(module, frame.lineno), [0, 0])
        site[0] += trace.size
        site[1] += 1
    lines = sorted(
        ((site, size, blocks) for site, (size, blocks) in sites.items()), key=lambda line: -line[1]
    )
    return modules, lines, rows, held


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--lines", type=int, default=0, metavar="N", help="also list the N largest allocation sites"
    )
    parser.add_argument(
        "--holders",
        action="store_true",
        help="also attribute the largest live object types to the structures that hold them",
    )
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same pinning as benchmarks/e2e/run.py: set and dict orders repeat.
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0"))
    modules, lines, rows, held = census(args.workload, args.seed, args.scale, args.holders)
    total = sum(modules.values())
    print(
        "{} seed {} scale {}: {:,} routing rows".format(args.workload, args.seed, args.scale, rows)
    )
    print("{:<40} {:>12} {:>10}".format("module", "bytes", "B/row"))
    for module, size in sorted(modules.items(), key=lambda item: -item[1]):
        print("{:<40} {:>12,} {:>10,.0f}".format(module, size, size / max(rows, 1)))
    print("{:<40} {:>12,} {:>10,.0f}".format("total repro", total, total / max(rows, 1)))
    if args.lines > 0:
        print()
        print("a site is the first allocator of a block; dict free lists hand reused memory on")
        print("to later dicts, so a site may hold what another line built (see --holders)")
        print("{:<52} {:>12} {:>8} {:>8}".format("allocation site", "bytes", "blocks", "B/row"))
        for site, size, blocks in lines[: args.lines]:
            print(
                "{:<52} {:>12,} {:>8,} {:>8,.0f}".format(site, size, blocks, size / max(rows, 1))
            )
    if held is not None:
        print()
        _print_holders(held)
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("ru_maxrss (tracemalloc on) {:.1f} MB".format(maxrss_mb))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
