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
"""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Packages forming the transport-agnostic core.
CORE_PACKAGES = ("broker", "routing", "dispatch")

#: The module prefix the core must never import.
FORBIDDEN_PREFIX = "repro.sim"


def _core_source_files():
    for package in CORE_PACKAGES:
        root = os.path.join(SRC, "repro", package)
        assert os.path.isdir(root), root
        for dirpath, _, filenames in os.walk(root):
            if "__pycache__" in dirpath:
                continue
            for filename in filenames:
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def _forbidden(module_name):
    return module_name == FORBIDDEN_PREFIX or module_name.startswith(
        FORBIDDEN_PREFIX + "."
    )


def test_core_packages_never_import_the_simulator():
    """AST check: no import statement targets the simulator package."""
    offenders = []
    for path in _core_source_files():
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _forbidden(alias.name):
                        offenders.append("{}:{} imports {}".format(path, node.lineno, alias.name))
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and _forbidden(module):
                    offenders.append("{}:{} imports from {}".format(path, node.lineno, module))
    assert not offenders, "core imports the simulator backend:\n" + "\n".join(offenders)


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


def _assert_loads_no_simulator(statements):
    """Run *statements* in a fresh interpreter; no simulator module may load."""
    program = (
        "import sys\n"
        + statements
        + "loaded = sorted(m for m in sys.modules if m.startswith('repro.' + 'sim'))\n"
        "sys.exit('simulator modules loaded: {}'.format(loaded) if loaded else 0)\n"
    )
    environment = dict(os.environ)
    environment["PYTHONPATH"] = SRC + os.pathsep + environment.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env=environment,
    )
    assert result.returncode == 0, result.stderr or result.stdout


def test_importing_the_core_does_not_load_the_simulator():
    """Runtime check: the core's import graph is simulator-free."""
    _assert_loads_no_simulator(
        "import repro.broker, repro.routing, repro.dispatch\n"
        "import repro.broker.base, repro.broker.network, repro.broker.client\n"
        "import repro.broker.forwarding\n"
    )


def test_wall_clock_aio_runtime_does_not_load_the_simulator():
    """Only the virtual-time branch imports the simulator it runs on."""
    _assert_loads_no_simulator(
        "from repro.runtime.aio import AioRuntime\n"
        "AioRuntime().close()\n"
    )


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
    "repro.cli._FIGURES",
    "repro.cli._TABLES",
    "repro.dispatch.predicate_index._CMP_OPS",
    "repro.experiments.fig2_naive_roaming.EVENT_FILTER",
    "repro.experiments.table1_ploc.PAPER_TABLE_1",
    "repro.experiments.table2_filters.PAPER_TABLE_2",
    "repro.experiments.table3_endpoints.ALL_LOCATIONS",
    "repro.experiments.table3_endpoints.PAPER_TABLE_3_FLOODING",
    "repro.experiments.table3_endpoints.PAPER_TABLE_3_TRIVIAL",
    "repro.experiments.table4_adaptive.PAPER_TABLE_4",
    "repro.filters.constraints._OPERATORS",
    "repro.filters.wire._SCALAR_OPS",
    "repro.messages.base.EMPTY_META",
    # Type variables.
    "repro.sim.rng.T",
    # Sentinels.
    "repro.core.location_filter.MYLOC",
    "repro.filters.merging._ABSENT",
    # Stateless and built once, at import: the canonical JSON encoder
    # (one instance instead of one per json.dumps call).
    "repro.messages.wire.CANONICAL_JSON",
    # By design: the wire codec's and the strategies' name registries
    # (filled once, at import) and the enable_telemetry() default.
    "repro.messages.wire._REGISTRY",
    "repro.routing.strategies._STRATEGIES",
    "repro.telemetry.__init__._ACTIVE_CONFIG",
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


def _module_state(path, module):
    """``module.name`` of every global statement and stateful module-level binding."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
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


def test_no_new_process_global_state():
    """AST check: module-level mutable state is an explicit, short list."""
    found = set()
    for dirpath, _, filenames in os.walk(os.path.join(SRC, "repro")):
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                module = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
                found.update(_module_state(path, module))
    unexpected = sorted(found - MODULE_STATE_ALLOWED)
    assert not unexpected, "process-global state in src/repro: {}".format(unexpected)
