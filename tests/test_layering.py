"""Architectural layering rules (the import linter).

The core/runtime split (see ``docs/architecture.md``) makes the broker
core transport-agnostic: ``repro.broker``, ``repro.routing`` and
``repro.dispatch`` may depend on the runtime protocols
(:mod:`repro.runtime`) but never on the simulator backend
(``repro.sim``).  Three independent checks enforce this:

* an AST walk over every source file in the three packages, rejecting
  any ``import``/``from ... import`` of the simulator package;
* a plain-text scan mirroring the repository's acceptance criterion
  (``grep -r "repro.sim" src/repro/broker src/repro/routing
  src/repro/dispatch`` must be empty — comments and docstrings count);
* a subprocess import: loading the three packages must not pull any
  simulator module into ``sys.modules`` (the default ``SimRuntime`` is
  imported lazily, only when a caller asks for it) — nor may a
  wall-clock asyncio runtime, whose virtual-time twin runs on the
  simulator's event queue.

The link codec sits below the broker and telemetry: no module of
``repro.messages`` imports from ``repro.broker`` or ``repro.telemetry``,
at module scope or inside a function.
"""

import ast
import importlib
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Packages forming the transport-agnostic core.
CORE_PACKAGES = ("broker", "routing", "dispatch")

#: The module prefix the core must never import.
FORBIDDEN_PREFIX = "repro.sim"


def _source_files(packages):
    for package in packages:
        root = os.path.join(SRC, "repro", package)
        assert os.path.isdir(root), root
        for dirpath, _, filenames in os.walk(root):
            if "__pycache__" in dirpath:
                continue
            for filename in filenames:
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def _core_source_files():
    return _source_files(CORE_PACKAGES)


def _under(module_name, prefixes):
    return any(module_name == prefix or module_name.startswith(prefix + ".") for prefix in prefixes)


def _imports_of(paths, prefixes):
    """``path:line imports [from] module`` for every import statement in
    *paths* — module or function scope — that targets one of *prefixes*."""
    offenders = []
    for path in paths:
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _under(alias.name, prefixes):
                        offenders.append("{}:{} imports {}".format(path, node.lineno, alias.name))
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and _under(module, prefixes):
                    offenders.append("{}:{} imports from {}".format(path, node.lineno, module))
    return offenders


def test_core_packages_never_import_the_simulator():
    """AST check: no import statement targets the simulator package."""
    offenders = _imports_of(_core_source_files(), (FORBIDDEN_PREFIX,))
    assert not offenders, "core imports the simulator backend:\n" + "\n".join(offenders)


def test_messages_never_import_the_broker_or_telemetry():
    """AST check: the link codec decodes the messages a broker handles, but
    knows neither the broker (its snapshots) nor telemetry (its events)."""
    offenders = _imports_of(_source_files(("messages",)), ("repro.broker", "repro.telemetry"))
    assert not offenders, "repro.messages imports upward:\n" + "\n".join(offenders)


def test_core_sources_do_not_mention_the_simulator_package():
    """Text check: the acceptance grep over the core packages is empty."""
    needle = "repro" + ".sim"  # avoid tripping this very file's own check
    offenders = []
    for path in _core_source_files():
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                if needle in line:
                    offenders.append("{}:{}: {}".format(path, lineno, line.strip()))
    assert not offenders, "core sources mention the simulator package:\n" + "\n".join(offenders)


def _run(program):
    """Run *program* in a fresh interpreter on the source tree; its completed process."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = SRC + os.pathsep + environment.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env=environment,
        timeout=60,
    )


def _assert_loads_none(packages, statements):
    """Run *statements* in a fresh interpreter; no module of *packages* (one
    name or a tuple of them) may load, nor any submodule of one."""
    if isinstance(packages, str):
        packages = (packages,)
    result = _run(
        "import sys\n"
        + statements
        + "names = {!r}\n".format(packages)
        + "loaded = sorted(m for m in sys.modules if m in names or m.startswith("
        + "tuple(name + '.' for name in names)))\n"
        + "sys.exit('modules loaded: {}'.format(loaded) if loaded else 0)\n"
    )
    assert result.returncode == 0, result.stderr or result.stdout


def test_importing_the_core_does_not_load_the_simulator():
    """Runtime check: the core's import graph is simulator-free."""
    _assert_loads_none(
        "repro." + "sim",
        "import repro.broker, repro.routing, repro.dispatch\n"
        "import repro.broker.base, repro.broker.network, repro.broker.client\n"
        "import repro.broker.forwarding\n",
    )


def test_wall_clock_aio_runtime_does_not_load_the_simulator():
    """Only the virtual-time branch imports the simulator it runs on."""
    _assert_loads_none(
        "repro." + "sim",
        "from repro.runtime.aio import AioRuntime\nAioRuntime().close()\n",
    )


#: A three-broker network routing one advertised notification.
ONE_NOTIFICATION = (
    "from repro import PubSubNetwork, line_topology\n"
    "network = PubSubNetwork(line_topology(3))\n"
    "producer = network.add_client('producer', 'B3')\n"
    "producer.advertise({'topic': 'news'})\n"
    "consumer = network.add_client('consumer', 'B1')\n"
    "consumer.subscribe({'topic': 'news'})\n"
    "network.settle()\n"
    "producer.publish({'topic': 'news'})\n"
    "network.settle()\n"
    "assert len(consumer.received) == 1\n"
)

#: The most ``repro`` modules (packages included) that :data:`ONE_NOTIFICATION`
#: may load.  Lower it when a change loads fewer; a change that must load
#: more raises it and says why.
RUNNING_NETWORK_MODULES = 50

#: What a running network without telemetry or recovery has no use for:
#: the dataclass machinery and ``inspect`` (which it imports), sockets,
#: the telemetry sinks, emitter and events, the link codec, fault
#: injection, the seeded RNG and the recovery store.
NOT_LOADED_BY_A_RUNNING_NETWORK = (
    "dataclasses",
    "inspect",
    "socket",
    "repro.telemetry.sinks",
    "repro.telemetry.emitter",
    "repro.telemetry.events",
    "repro.messages.wire",
    "repro.runtime.faults",
    "repro.sim.rng",
    "repro.broker.recovery",
)


def test_a_running_network_does_not_load_the_metrics_package():
    """The trace analyses of ``repro.metrics`` are the experiments' business:
    building a network, routing one notification and reading its data-plane
    breakdown load none of them."""
    _assert_loads_none(
        "repro.metrics",
        ONE_NOTIFICATION
        + "assert network.data_plane_breakdown()['notifications_delivered'] == 1\n",
    )


def test_a_running_network_loads_only_what_it_runs():
    """Routing one notification loads no module that only telemetry,
    recovery, fault injection or the experiments use."""
    _assert_loads_none(NOT_LOADED_BY_A_RUNNING_NETWORK, ONE_NOTIFICATION)


def test_lazy_packages_resolve_every_exported_name():
    """The packages that re-export lazily still export every name of their ``__all__``."""
    for package in ("repro.runtime", "repro.sim", "repro.telemetry"):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, (package, name)


def test_a_running_network_loads_at_most_its_committed_modules():
    """A cold-start tripwire: routing one notification loads a bounded set of modules."""
    result = _run(
        "import sys\n"
        + ONE_NOTIFICATION
        + "print('\\n'.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert len(loaded) <= RUNNING_NETWORK_MODULES, loaded


# ---------------------------------------------------------------------------
# No process-global mutable state
# ---------------------------------------------------------------------------

#: Module-level bindings allowed to hold a mutable object or a call's
#: result, by ``module.name``.  Anything else bound at module level to a
#: dict / list / set display, a comprehension or a call — and any
#: ``global`` statement — is process-global state a second network in the
#: same process would inherit; give it an owner instead.
MODULE_STATE_ALLOWED = {
    # Read-only lookup tables.
    "repro.dispatch.predicate_index._CMP_OPS",
    "repro.experiments.fig2_naive_roaming.EVENT_FILTER",
    "repro.experiments.runner.EXPERIMENTS",
    "repro.experiments.table1_ploc.PAPER_TABLE_1",
    "repro.experiments.table2_filters.PAPER_TABLE_2",
    "repro.experiments.table3_endpoints.ALL_LOCATIONS",
    "repro.experiments.table3_endpoints.PAPER_TABLE_3_FLOODING",
    "repro.experiments.table3_endpoints.PAPER_TABLE_3_TRIVIAL",
    "repro.experiments.table4_adaptive.PAPER_TABLE_4",
    "repro.filters.constraints._OPERATORS",
    "repro.filters.wire._SCALAR_OPS",
    "repro.messages.base.EMPTY_META",
    # The lazy re-export tables of three package __init__s (PEP 562).
    "repro.runtime.__init__._EXPORTS",
    "repro.sim.__init__._EXPORTS",
    "repro.telemetry.__init__._EXPORTS",
    # Type variables.
    "repro.messages.base.M",
    "repro.sim.rng.T",
    # Sentinels.
    "repro.core.location_filter.MYLOC",
    "repro.filters.merging._ABSENT",
    # Stateless and built once, at import: the canonical JSON encoder
    # (one instance instead of one per json.dumps call).
    "repro.messages.wire.CANONICAL_JSON",
    # By design: the wire codec's, the telemetry events' and the
    # strategies' name registries (filled once, at import).
    "repro.messages.wire._REGISTRY",
    "repro.telemetry.events.EVENT_REGISTRY",
    "repro.routing.strategies._STRATEGIES",
}

_STATEFUL_VALUES = (
    ast.Dict,
    ast.List,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
    ast.GeneratorExp,
    ast.Call,
)


#: Class-level bindings allowed to hold a mutable object or a call's
#: result, by ``module.Class.name``: the read-only message tables, built
#: once at import.  Anything else bound in a class body to a dict / list /
#: set display, a comprehension or a call (a dataclass ``field(...)``
#: aside), and any assignment through ``cls.<name>`` or ``<Class>.<name>``,
#: is state every instance in the process shares.
CLASS_STATE_ALLOWED = {
    "repro.broker.base.Broker._MESSAGE_TABLE",
    "repro.broker.forwarding.SubscriptionForwarding.MESSAGES",
    "repro.broker.reliability.Reliability.MESSAGES",
    "repro.core.logical.LogicalMobility.MESSAGES",
    "repro.core.physical.PhysicalMobility.MESSAGES",
}


def _module_level(statements):
    """Statements run at import (nested blocks included, ``__main__`` guards not)."""
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_level(getattr(node, field, None) or [])


def _module_state(tree, module):
    """``module.name`` of every global statement and stateful module-level binding."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            for name in node.names:
                yield "{}.{}".format(module, name)
    for node in _module_level(tree.body):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if not isinstance(node.value, _STATEFUL_VALUES):
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id != "__all__":
                    yield "{}.{}".format(module, name.id)


def _assigned(node):
    """``(flattened targets, value)`` of an assignment statement, else ``((), None)``."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
        targets = [node.target]
    else:
        return (), None
    flat = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        else:
            flat.append(target)
    return flat, node.value


def _class_state(tree, module, classes):
    """``module.Class.name`` of every stateful class-body binding and of every
    assignment through ``cls.<name>`` or ``<Class>.<name>``; *classes* maps
    each class name in the package to its ``module.Class``."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                name = "{}.{}".format(owner or module, child.name)
                for statement in child.body:
                    targets, value = _assigned(statement)
                    field_call = isinstance(value, ast.Call) and ast.unparse(value.func) == "field"
                    if isinstance(value, _STATEFUL_VALUES) and not field_call:
                        for target in targets:
                            if isinstance(target, ast.Name):
                                yield "{}.{}".format(name, target.id)
                yield from visit(child, name)
                continue
            for target in _assigned(child)[0]:
                while isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                    base = target.value.id
                    if base == "cls" and owner is not None:
                        yield "{}.{}".format(owner, target.attr)
                    elif base in classes:
                        yield "{}.{}".format(classes[base], target.attr)
            yield from visit(child, owner)

    yield from visit(tree, None)


def test_no_new_process_global_state():
    """AST check: module- and class-level mutable state is an explicit, short list."""
    found = set()
    trees = {}
    for dirpath, _, filenames in os.walk(os.path.join(SRC, "repro")):
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                module = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
                with open(path) as handle:
                    trees[module] = ast.parse(handle.read(), filename=path)
                found.update(_module_state(trees[module], module))
    classes = {
        node.name: "{}.{}".format(module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    for module, tree in trees.items():
        found.update(_class_state(tree, module, classes))
    unexpected = sorted(found - MODULE_STATE_ALLOWED - CLASS_STATE_ALLOWED)
    assert not unexpected, "process-global state in src/repro: {}".format(unexpected)


def test_class_state_check_sees_counters_and_class_assignments():
    """The class-level half of the check flags a class-body counter or
    table and any write through ``cls`` or a class name; a dataclass
    field, a constant and an instance attribute pass."""
    source = """
@dataclass
class Record:
    rows: list = field(default_factory=list)
    LIMIT = 4

    def __init__(self):
        self.seen = set()


class Counted:
    _ids = itertools.count(1)
    TABLE = {}

    @classmethod
    def reset(cls):
        cls._ids = itertools.count(1)

    def grow(self):
        Record.LIMIT += 1
        Counted.TABLE["key"] = self
"""
    classes = {"Record": "m.Record", "Counted": "m.Counted"}
    found = set(_class_state(ast.parse(source), "m", classes))
    assert found == {"m.Counted._ids", "m.Counted.TABLE", "m.Record.LIMIT"}
