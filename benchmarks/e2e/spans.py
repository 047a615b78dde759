"""Per-layer tracing from outside the program.

The traced run wraps the public callables of each layer *by dotted name*
before the network is built, so nothing in ``src/`` knows it is being
measured.  Every wrapped call is a span: name, start, end and the span
that caused it.  Spans nest strictly (everything runs on one thread and
no wrapped callable awaits), so one stack gives each span its parent, and

    self time = duration − time covered by child spans.

Per ``(phase, layer)`` the recorder keeps call count, total and self
time for *every* call; the full span tree, with start and end stamps, is
kept only for every :data:`SAMPLE_EVERY`-th harness operation (one
publish window, one handover, …) so memory stays flat.  Everything stays
in memory until :meth:`SpanRecorder.write` at the end of the run.

A target that no longer exists is not an error: it is listed in
``unresolved`` and its metrics read 0 — later changes may delete the
facades and flags some counters come from, and they may not edit this
directory.
"""

import functools
import importlib
import json
import sys
from time import perf_counter_ns

#: Keep the full span tree of every n-th harness operation.
SAMPLE_EVERY = 50


def _matched(args, result):
    return {"dispatch.matched": len(result)}


def _wire_bytes(args, result):
    return {"messages.wire_bytes": len(result)}


def _journal_bytes(args, result):
    return {"broker.journal_bytes": len(args[1])}


def _replayed(args, result):
    return {"core.replayed_notifications": len(result)}


def _events(args, result):
    return {"sim.events": result}


def _message_kind(args, result):
    return {"broker.{}_msgs".format(args[1].kind.value): 1}


#: ``(layer, dotted target, measure)``.  Calls and self time of all targets
#: of one layer add up under its name; *measure* turns ``(args, result)``
#: of a call into extra counts.
TARGETS = (
    ("dispatch.match", "repro.dispatch.plan.DispatchPlan.match", _matched),
    ("dispatch.rebuild", "repro.dispatch.plan.DispatchPlan.rebuild", None),
    ("routing.table_write", "repro.routing.table.RoutingTable.add", None),
    ("routing.table_write", "repro.routing.table.RoutingTable.remove", None),
    ("routing.table_write", "repro.routing.table.RoutingTable.remove_subject", None),
    ("routing.table_write", "repro.routing.table.RoutingTable.remove_destination", None),
    ("filters.covering", "repro.filters.covering.filter_covers", None),
    ("broker.receive", "repro.broker.base.Broker.receive", None),
    ("broker.receive", "repro.broker.base.Broker.receive_batch", None),
    ("broker.client_op", "repro.broker.base.Broker.attach_client", None),
    ("broker.client_op", "repro.broker.base.Broker.detach_client", None),
    ("broker.client_op", "repro.broker.base.Broker.client_advertise", None),
    ("broker.client_op", "repro.broker.base.Broker.client_subscribe", None),
    ("broker.client_op", "repro.broker.base.Broker.client_unsubscribe", None),
    ("broker.client_op", "repro.broker.base.Broker.client_publish", None),
    ("broker.client_op", "repro.broker.base.Broker.client_moved_subscribe", None),
    ("broker.client_op", "repro.broker.base.Broker.client_location_dependent_subscribe", None),
    ("broker.client_op", "repro.broker.base.Broker.client_set_location", None),
    ("broker.forwarding_refresh", "repro.broker.base.Broker.refresh_forwarding", None),
    (
        "broker.forwarding_refresh",
        "repro.broker.forwarding.NeighbourForwardingState.add_contribution",
        None,
    ),
    (
        "broker.forwarding_refresh",
        "repro.broker.forwarding.NeighbourForwardingState.remove_contribution",
        None,
    ),
    ("broker.deliver", "repro.broker.client.Client.deliver", None),
    ("broker.journal", "repro.broker.recovery.RecoveryStore.append", None),
    (
        "broker.journal_persist",
        "repro.broker.recovery.RecoveryStore._persist_record",
        _journal_bytes,
    ),
    ("core.relocation", "repro.core.physical.VirtualCounterpart.replay_after", _replayed),
    (
        "core.location_change",
        "repro.core.logical.LogicalSubscriptionState.apply_location_change",
        None,
    ),
    ("messages.encode", "repro.messages.wire.encode_frame", _wire_bytes),
    ("messages.decode", "repro.messages.wire.decode_message", None),
    ("runtime.trace", "repro.runtime.trace.TraceRecorder.record_link", None),
    ("runtime.trace", "repro.runtime.trace.TraceRecorder.record_delivery", None),
    ("runtime.trace", "repro.runtime.trace.TraceRecorder.record_publish", None),
    ("runtime.trace", "repro.runtime.trace.TraceRecorder.record_drop", None),
    ("runtime.send", "repro.sim.network.Link.send", _message_kind),
    ("runtime.send", "repro.runtime.aio.AioChannel.send", _message_kind),
    ("runtime.settle", "repro.broker.network.PubSubNetwork.settle", _events),
    ("runtime.settle", "repro.broker.network.PubSubNetwork.run_until", None),
)

#: Modules whose ``from x import y`` bindings must exist before patching.
PRELOAD = ("repro", "repro.runtime.sim", "repro.runtime.aio")


class SpanRecorder:
    """Wraps the targets, records spans, aggregates them per phase and layer."""

    def __init__(self):
        self.phase = "idle"
        self.totals = {}  # (phase, layer) -> [calls, total ns, self ns]
        self.counts = {}  # (phase, count name) -> number
        self.trees = []  # sampled operations: lists of span dicts
        self.unresolved = []
        self._stack = []  # frames: [child ns, span id]
        self._operations = 0
        self._operation_kind = None
        self._sampled = None  # span list of the operation being sampled, if any
        self._next_span = 0
        self._patched = []  # (owner, attribute, original)

    # -- installing ------------------------------------------------------------
    def install(self):
        """Replace every resolvable target with its traced wrapper."""
        for module in PRELOAD:
            try:
                importlib.import_module(module)
            except ImportError:
                self.unresolved.append(module)
        for layer, dotted, measure in TARGETS:
            try:
                owner, attribute, original = _resolve(dotted)
            except (ImportError, AttributeError):
                self.unresolved.append(dotted)
                continue
            traced = self._wrap(layer, original, measure)
            if isinstance(owner, type):
                self._patch(owner, attribute, original, traced)
                continue
            # A module-level function: other modules hold their own
            # reference (``from repro.messages.wire import encode_frame``),
            # so patch the name wherever it is bound to the same object.
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and getattr(module, attribute, None) is original:
                    self._patch(module, attribute, original, traced)

    def _patch(self, owner, attribute, original, traced):
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def uninstall(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched = []

    def _wrap(self, layer, function, measure):
        recorder = self
        stack = self._stack
        totals = self.totals
        counts = self.counts

        @functools.wraps(function)
        def traced(*args, **kwargs):
            phase = recorder.phase
            if phase == "idle":
                return function(*args, **kwargs)
            frame = [0, 0]
            sampled = recorder._sampled
            if sampled is not None:
                recorder._next_span += 1
                frame[1] = recorder._next_span
            stack.append(frame)
            started = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = perf_counter_ns()
                stack.pop()
                duration = ended - started
                key = (phase, layer)
                total = totals.get(key)
                if total is None:
                    total = totals[key] = [0, 0, 0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
                parent = 0
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                if sampled is not None:
                    sampled.append(
                        {
                            "trace": recorder._operations,
                            "span": frame[1],
                            "parent": parent,
                            "name": layer,
                            "start_ns": started,
                            "end_ns": ended,
                        }
                    )
            if measure is not None:
                for name, amount in measure(args, result).items():
                    counts[(phase, name)] = counts.get((phase, name), 0) + amount
            return result

        return traced

    # -- harness operations ---------------------------------------------------------
    def begin_operation(self, kind):
        """Open the root span of one harness operation (its trace id is new)."""
        self._operations += 1
        self._operation_kind = kind
        self._sampled = [] if self._operations % SAMPLE_EVERY == 0 else None
        self._next_span += 1
        self._stack.append([0, self._next_span])
        self._operation_started = perf_counter_ns()

    def end_operation(self):
        ended = perf_counter_ns()
        child_ns, span = self._stack.pop()
        duration = ended - self._operation_started
        layer = "harness." + self._operation_kind
        total = self.totals.setdefault((self.phase, layer), [0, 0, 0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_ns
        if self._sampled is not None:
            self._sampled.append(
                {
                    "trace": self._operations,
                    "span": span,
                    "parent": 0,
                    "name": layer,
                    "start_ns": self._operation_started,
                    "end_ns": ended,
                }
            )
            self.trees.append(self._sampled)
            self._sampled = None

    # -- reading --------------------------------------------------------------
    def layer(self, name, phases):
        """``(calls, total seconds, self seconds)`` of *name* summed over *phases*."""
        calls = total = self_ = 0
        for phase in phases:
            entry = self.totals.get((phase, name))
            if entry is not None:
                calls += entry[0]
                total += entry[1]
                self_ += entry[2]
        return calls, total / 1e9, self_ / 1e9

    def count(self, name, phases):
        return sum(self.counts.get((phase, name), 0) for phase in phases)

    def write(self, path, extra):
        """Write the per-phase table and the sampled span trees as JSON."""
        table = {}
        for (phase, name), (calls, total, self_) in sorted(self.totals.items()):
            table.setdefault(phase, {})[name] = {
                "calls": calls,
                "total_s": total / 1e9,
                "self_s": self_ / 1e9,
            }
        counts = {}
        for (phase, name), amount in sorted(self.counts.items()):
            counts.setdefault(phase, {})[name] = amount
        document = dict(
            extra,
            unresolved=self.unresolved,
            layers=table,
            counts=counts,
            sample_every=SAMPLE_EVERY,
            span_trees=self.trees,
        )
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1)


def _resolve(dotted):
    """``(owner, attribute, object)`` for ``package.module[.Class].name``."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:-1]:
            owner = getattr(owner, attribute)
        # On a class, take only what the class itself defines: patching an
        # inherited name there would shadow the base class's method.
        original = vars(owner).get(parts[-1]) if isinstance(owner, type) else None
        if original is None:
            original = getattr(owner, parts[-1])
        return owner, parts[-1], original
    raise ImportError(dotted)
