"""The registry kernel's surface: what a deployment registers, and
ratchets on how it decides.

"Off means absent": every registry constructs every subsystem (its
counters stay readable everywhere), but one the configuration does not
turn on holds no handler, periodic task, write observer, component slot,
federation watcher or interceptor; a node routes through a
``PassThrough`` unless adaptive routing is on; a deployment builds no
health monitor, trace observer or disk it was not asked for — and
nothing asks a subsystem whether it is on. One structural statement
covers all of them, in place of a same-seed byte-identity gate per
subsystem; the ratchets keep it true, in the shape of
``tests/test_config_surface.py``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path
from typing import get_args

import pytest

import repro
from repro.core import protocol
from repro.core.admission import AdmissionController, AdmissionPolicy
from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.durability import DurabilityConfig, DurabilityManager, INCARNATION_HEADER
from repro.core.routing import ROUTING_LEAST_LOADED, ROUTING_STATIC, RoutingConfig
from repro.core.sharding import ShardingConfig
from repro.core.system import DiscoverySystem
from repro.descriptions import Description, Query
from repro.descriptions.uri import UriDescription, UriQuery
from repro.experiments.e17_overload import shedding_policy
from repro.netsim.node import Node
from repro.obs.health import HealthConfig
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile
from tests.deployments import e7_ring

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent


# -- off means absent -----------------------------------------------------------


def _registry(config):
    system = DiscoverySystem(seed=1, ontology=battlefield_ontology(), config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    system.run(until=0.1)  # start() has run
    return system, registry


def _names(objects):
    return [type(o).__name__ for o in objects]


def _surface(config):
    """Everything a one-LAN deployment — a registry, a service and a
    client — registered, by name."""
    system, registry = _registry(config)
    service = system.add_service("lan-0", ServiceProfile.build(
        "radar-0", "ncw:RadarService", outputs=["ncw:AirTrack"]))
    client = system.add_client("lan-0")
    system.run_for(0.1)
    fenced = registry.send(registry.node_id, protocol.AD_FORWARD)
    return {
        "handlers": frozenset(registry.handlers),
        "periodic tasks": len(registry._periodics),
        "write observers": _names(registry.writes.observers),
        "components": _names(registry.components),
        "interceptor": type(registry.interceptor).__name__,
        "routers": _names(node.router for node in (registry, service, client)),
        "neighbor_added watchers": _names(
            watcher.__self__
            for watcher in registry.federation._observers.get("neighbor_added", ())),
        "health": type(system.health).__name__,
        "trace observers": len(system.trace.observers),
        "health metrics": sorted(name for section in system.metrics.snapshot().values()
                                 for name in section if name.startswith("health.")),
        "disks": len(system.network.disks),
        "fenced header": INCARNATION_HEADER in fenced.headers,
    }


#: The components every registry registers, in the order each is rebuilt
#: and started; the optional ones in use follow.
CORE = ["WriteCoordinator", "Federation", "QueryCoordinator", "ArtifactRepository",
        "Subscriptions", "AdmissionController", "PassThrough"]


def _replicating(**overrides):
    return DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS, **overrides)


#: subsystem -> a config that tunes it without enabling it.
TUNED_OFF = {
    "sharding": DiscoveryConfig(sharding=ShardingConfig(
        enabled=False, replication_factor=5, write_quorum=4)),
    "anti-entropy rounds": DiscoveryConfig(antientropy_interval=2.0),
    "durability": DiscoveryConfig(durability=DurabilityConfig(
        enabled=False, snapshot_interval=3.0)),
    "admission": DiscoveryConfig(admission=AdmissionPolicy(
        queue_limit=3, prioritized=False, degrade_at=0.9)),
    "routing": DiscoveryConfig(routing=RoutingConfig(strategy=ROUTING_STATIC)),
    "health": DiscoveryConfig(health=HealthConfig(enabled=False, shed_step_threshold=2)),
}

SHARD_TYPES = {
    protocol.SHARD_STORE, protocol.SHARD_STORE_ACK, protocol.SHARD_RENEW,
    protocol.SHARD_RENEW_ACK, protocol.SHARD_REMOVE, protocol.SHARD_REMOVE_ACK,
    protocol.SHARD_TRANSFER,
}
ANTIENTROPY_TYPES = {
    protocol.ANTIENTROPY_DIGEST, protocol.ANTIENTROPY_PULL, protocol.ANTIENTROPY_ADS,
}

#: subsystem -> (config without it, config with it, what it alone adds).
ENABLED = {
    "sharding": (
        _replicating(),
        _replicating(sharding=ShardingConfig(enabled=True)),
        # Replaces the flood: its own messages in, the flood's out.
        {"handlers": (SHARD_TYPES, {protocol.AD_FORWARD}),
         "components": [*CORE, "AntiEntropy", "ShardManager"],
         "neighbor_added watchers": ["ArtifactRepository", "ShardManager"]},
    ),
    "flood replication": (
        DiscoveryConfig(),
        _replicating(antientropy_interval=None),
        {"handlers": ({protocol.AD_FORWARD}, set()),
         "write observers": ["AntiEntropy"],
         "components": [*CORE, "AntiEntropy", "FloodReplicator"],
         "neighbor_added watchers": ["ArtifactRepository", "FloodReplicator"]},
    ),
    "anti-entropy rounds": (
        _replicating(antientropy_interval=None),
        _replicating(antientropy_interval=2.0),
        {"handlers": (ANTIENTROPY_TYPES, set()), "periodic tasks": +1},
    ),
    "durability": (
        DiscoveryConfig(),
        DiscoveryConfig(durability=DurabilityConfig(enabled=True)),
        {"periodic tasks": +1, "write observers": ["DurabilityManager"],
         "components": [*CORE, "DurabilityManager"], "disks": 1, "fenced header": True},
    ),
    "admission": (
        DiscoveryConfig(),
        DiscoveryConfig(admission=shedding_policy()),
        {"interceptor": "AdmissionController"},
    ),
    "routing": (
        DiscoveryConfig(),
        DiscoveryConfig(routing=RoutingConfig(strategy=ROUTING_LEAST_LOADED)),
        {"routers": ["Router"] * 3, "components": [*CORE[:-1], "Router"]},
    ),
    "health": (
        DiscoveryConfig(),
        DiscoveryConfig(health=HealthConfig(enabled=True)),
        {"health": "HealthMonitor", "trace observers": 1},
    ),
    "artifact sync": (
        DiscoveryConfig(artifact_sync=False),
        DiscoveryConfig(),
        {"neighbor_added watchers": ["ArtifactRepository"]},
    ),
}


@pytest.mark.parametrize("subsystem", sorted(TUNED_OFF))
def test_tuned_but_off_registers_nothing(subsystem):
    plain = _surface(DiscoveryConfig())
    assert _surface(TUNED_OFF[subsystem]) == plain
    assert plain["write observers"] == []
    assert plain["components"] == CORE
    assert plain["interceptor"] == "NoneType"
    assert plain["routers"] == ["PassThrough"] * 3
    assert plain["neighbor_added watchers"] == ["ArtifactRepository"]
    assert plain["health"] == "NoneType"
    assert plain["trace observers"] == 0 and plain["health metrics"] == []
    assert plain["disks"] == 0 and not plain["fenced header"]
    assert not plain["handlers"] & (SHARD_TYPES | ANTIENTROPY_TYPES
                                    | {protocol.AD_FORWARD})


@pytest.mark.parametrize("subsystem", sorted(ENABLED))
def test_enabling_adds_exactly_its_own_registrations(subsystem):
    without, with_it, adds = ENABLED[subsystem]
    adds = dict(adds)
    before, after = _surface(without), _surface(with_it)
    gained, lost = adds.pop("handlers", (set(), set()))
    assert after["handlers"] - before["handlers"] == gained
    assert before["handlers"] - after["handlers"] == lost
    expected = dict(before, handlers=after["handlers"], **{
        key: before[key] + value if key == "periodic tasks" else value
        for key, value in adds.items()
    })
    assert after == expected


def test_plain_deployment_never_touches_the_shard_manager():
    deployment = e7_ring()
    deployment.discover(6)
    for registry in deployment.system.registries:
        assert set(registry.shard.counters().values()) == {0}
        assert len(registry.shard.ring) == 0
        assert registry.unknown_messages == 0


def test_foreign_replication_traffic_is_an_unknown_message():
    """AD_FORWARD outside flood mode is counted like any other message
    type no component of this registry serves."""
    for config in (DiscoveryConfig(),
                   _replicating(sharding=ShardingConfig(enabled=True))):
        system, registry = _registry(config)
        peer = system.network.add_node(Node("peer"), "lan-0")
        peer.send(registry.node_id, protocol.AD_FORWARD, None)
        system.run_for(0.1)
        assert registry.unknown_messages == 1


# -- ratchets -------------------------------------------------------------------

#: Allowed only to fall.
REGISTRY_NODE_LINE_CEILING = 282


def test_registry_node_does_not_grow():
    lines = len((SRC / "core" / "registry_node.py").read_text().splitlines())
    assert lines <= REGISTRY_NODE_LINE_CEILING, (
        f"core/registry_node.py has {lines} lines (ceiling "
        f"{REGISTRY_NODE_LINE_CEILING}): move the new code behind a "
        "component, or lower the ceiling if the file shrank."
    )


#: Allowed only to fall: an experiment states only what its rows vary.
EXPERIMENTS_LINE_CEILING = 3958


def test_experiments_do_not_grow():
    lines = sum(len(path.read_text().splitlines())
                for path in (SRC / "experiments").glob("*.py"))
    assert lines <= EXPERIMENTS_LINE_CEILING, (
        f"experiments/ has {lines} lines (ceiling {EXPERIMENTS_LINE_CEILING}): "
        "deploy through ScenarioSpec's defaults and play through "
        "workloads.queries.play, or lower the ceiling if it shrank."
    )


def _owner(node: ast.Attribute) -> str:
    value = node.value
    return value.attr if isinstance(value, ast.Attribute) else getattr(value, "id", "")


def _enable_predicates(path: Path, *, exempt: tuple[str, ...] = ()) -> list[str]:
    """Every place a function of ``path`` asks whether something is on."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef) or func.name in exempt:
            continue
        for node in ast.walk(func):
            what = None
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in ("active", "configured") or \
                        (attr == "enabled" and _owner(node.func) == "antientropy"):
                    what = f".{attr}()"
            elif isinstance(node, ast.Attribute):
                if node.attr == "enabled" and _owner(node) == "durability":
                    what = "durability.enabled"
                elif node.attr == "active" and _owner(node) == "health":
                    what = "health.active"
                elif node.attr == "artifact_sync":
                    what = "artifact_sync"
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and \
                        any(isinstance(s, ast.Attribute) and s.attr == "cooperation"
                            for s in sides):
                    what = "cooperation ==/!="
            if what:
                found.append(f"{path.name}:{node.lineno} {func.name}: {what}")
    return found


def test_nobody_is_asked_who_is_on():
    """The constructor decides what is registered; after that the node
    calls what was registered. The epoch fence (``send`` /
    ``_fence_stale``) stores values to detect a fault and is left alone."""
    core = SRC / "core"
    assert _enable_predicates(
        core / "registry_node.py", exempt=("__init__", "send", "_fence_stale")
    ) == []
    assert _enable_predicates(core / "antientropy.py") == []
    assert _enable_predicates(core / "federation.py") == []
    for path in (core / "query.py", core / "writes.py", core / "subscriptions.py",
                 core / "repository.py", SRC / "obs" / "health.py"):
        assert _enable_predicates(path, exempt=("__init__",)) == []


def test_federation_calls_the_registry_by_no_hook():
    """Federation tells its watchers (``Federation.watch``) of membership
    events; it calls no ``self.registry.on_*`` of the node it serves."""
    tree = ast.parse((SRC / "core" / "federation.py").read_text())
    hooks = [f"federation.py:{call.lineno} {'.'.join(_chain(call.func))}"
             for call in ast.walk(tree) if isinstance(call, ast.Call)
             and _chain(call.func)[:2] == ["self", "registry"]
             and _chain(call.func)[-1].startswith("on_")]
    assert hooks == []


def _type_checking_only(tree: ast.AST) -> set[ast.AST]:
    """The import statements inside an ``if TYPE_CHECKING:`` block."""
    return {node for block in ast.walk(tree) if isinstance(block, ast.If)
            and getattr(block.test, "id", None) == "TYPE_CHECKING"
            for stmt in block.body for node in ast.walk(stmt)}


def test_netsim_does_not_build_the_health_layer():
    """The deployment builds the health monitor and hands it to the
    network; ``repro.netsim`` names its type for annotations only."""
    found = []
    for path in sorted((SRC / "netsim").glob("*.py")):
        tree = ast.parse(path.read_text())
        typing_only = _type_checking_only(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if "repro.obs.health" in modules and node not in typing_only:
                found.append(f"netsim/{path.name}:{node.lineno}")
    assert found == []


#: The calls that change what a replica holds: ``(owner, method)``.
REPLICA_CHANGES = {("store", "put"), ("store", "discard"), ("leases", "grant"),
                   ("leases", "renew"), ("leases", "restore"), ("leases", "cancel_for_ad")}


def test_only_the_write_coordinator_changes_a_replica():
    """No module under ``src/repro/`` but ``core/writes.py`` puts into or
    discards from a registry's store, or grants, renews, restores or
    cancels its leases: every way in goes through ``store_ad`` /
    ``renew_ad`` / ``remove_ad`` / ``drop_ad``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "core" / "writes.py":
            continue
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call) and \
                    tuple(_chain(call.func)[-2:]) in REPLICA_CHANGES:
                found.append(f"{path.relative_to(SRC)}:{call.lineno}")
    assert found == []


#: What a registry keeps its advertisements in: the store, the lease
#: manager and a concept indexer, by the names the code reaches them by.
REGISTRY_STRUCTURES = {"store", "leases", "indexer", "index"}


def _private_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of each ``<structure>._x`` or ``getattr(<structure>,
    "_x", ...)`` in ``tree``, a structure named as in ``REGISTRY_STRUCTURES``."""
    found = []
    for node in ast.walk(tree):
        owner = name = None
        if isinstance(node, ast.Attribute):
            owner, name = node.value, node.attr
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" \
                and isinstance(node.args[1], ast.Constant):
            owner, name = node.args[0], node.args[1].value
        if owner is not None and isinstance(name, str) and name.startswith("_") \
                and not name.startswith("__") and _chain(owner)[-1] in REGISTRY_STRUCTURES:
            found.append((node.lineno, name))
    return found


def test_the_registry_internals_stay_behind_repro_registry():
    """No module under ``src/repro/`` outside ``registry/`` reads an
    underscore attribute of a store, a lease manager or an indexer: where
    the advertisement store keeps a record, its lease and its posting bits
    is the registry package's business, and ``check_invariants`` asks each
    structure's ``audit()`` instead of reading its maps."""
    found = [f"{path.relative_to(SRC)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py"))
             if not path.is_relative_to(SRC / "registry")
             for line, name in _private_reads(ast.parse(path.read_text()))]
    assert found == []
    probe = ast.parse("registry.leases._expiry_heap; getattr(store, '_indexes', {});"
                      " self.store._slot_of[x]; indexer.audit(); store.__len__()")
    assert sorted(name for _, name in _private_reads(probe)) \
        == ["_expiry_heap", "_indexes", "_slot_of"]


def test_only_the_coordinator_keeps_queries_in_flight():
    """Queries in flight and the loop-avoidance table are the query
    coordinator's: no other module under ``core/`` touches ``_pending`` or
    builds a ``SeenQueries``."""
    found = []
    for path in sorted((SRC / "core").glob("*.py")):
        if path.name == "query.py":
            continue
        tree = ast.parse(path.read_text())
        found += [f"core/{path.name}:{node.lineno} _pending" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_pending"]
        found += [f"core/{path.name}:{call.lineno} SeenQueries()"
                  for call in _calls(tree, "SeenQueries")]
    assert found == []


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name]


def test_no_handler_asks_what_it_was_handed():
    """``Node.receive`` matches a payload against the record its message
    type declares, once: under ``core/`` nothing tests a value against a
    protocol record (or ``RegistryDescription``) again."""
    records = {cls.__name__ for cls in protocol.MESSAGE_RECORDS.values()} - {"NoneType"}
    found = []
    for path in sorted((SRC / "core").glob("*.py")):
        for call in _calls(ast.parse(path.read_text()), "isinstance"):
            against = {getattr(node, "attr", getattr(node, "id", None))
                       for node in ast.walk(call.args[1])}
            if against & records:
                found.append(f"core/{path.name}:{call.lineno}")
    assert found == []


def test_no_model_asks_what_it_was_handed():
    """A description, query or ontology enters a node through one gate,
    ``ModelRegistry._admit`` (the slot's model must declare it), so under
    ``descriptions/`` and ``registry/`` nothing else tests a value against a
    model's record, or against what a model declares."""
    records = {cls.__name__ for hint in (Description, Query) for cls in get_args(hint)}
    records |= {"Ontology", "description_record", "query_record"}
    found = []
    for package in ("descriptions", "registry"):
        for path in sorted((SRC / package).glob("*.py")):
            tree = ast.parse(path.read_text())
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for call in (node for node in ast.walk(function) if isinstance(node, ast.Call)):
                    # isinstance(v, Record), and any helper handed a record
                    # class to test against (the late ``_well_typed(v, Record)``)
                    tested = call.args[1:] if getattr(call.func, "id", "") == "isinstance" \
                        else call.args
                    against = {getattr(node, "attr", getattr(node, "id", None))
                               for arg in tested for node in ast.walk(arg)}
                    where = f"{package}/{path.name}:{function.name}"
                    if against & records and where != "descriptions/base.py:_admit":
                        found.append(f"{where}:{call.lineno}")
    assert found == []


#: The only subclass of a protocol role: a dormant node that *becomes* a
#: registry. A compared architecture is a row of the table in
#: ``workloads/scenarios.py``, not a fork of the kernel.
ROLE_SUBCLASSES = {"StandbyRegistry"}


def test_a_deployment_is_a_row_not_a_fork():
    kernel = {"DiscoverySystem", "RegistryNode", "ClientNode", "ServiceNode"}
    subclasses = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
                for base in bases & kernel:
                    subclasses.setdefault(base, set()).add(node.name)
    assert subclasses == {"RegistryNode": ROLE_SUBCLASSES}
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.baselines")


#: Lifecycle hooks a role under ``core/`` may still define, and why. All
#: other state a transition touches is built by the role's ``rebuild()``
#: (see ``tests/test_lifecycle.py``); ``reset`` and ``roamed`` are gone.
DECLARED_HOOKS = {
    "RegistryNode.on_restart": "WAL replay, the one step a restart adds to a fresh start",
    "ClientNode.on_moved": "a roam rebuilds the attachment state and bootstraps on the new LAN",
    "ServiceNode.on_moved": "a roam rebuilds the attachment state and bootstraps on the new LAN",
}
#: The methods a crash, restart, roam or role change runs.
TRANSITIONS = {"rebuild", "on_crash", "on_restart", "on_moved", "_promote", "_demote"}


def test_a_transition_rebuilds_instead_of_clearing():
    """No hand-written lifecycle list under ``core/``: the hooks that remain
    are declared above, and no transition empties a container by name."""
    hooks, clears = [], []
    for path in sorted((SRC / "core").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for func in cls.body:
                if not isinstance(func, ast.FunctionDef):
                    continue
                if func.name in ("reset", "on_restart", "on_moved", "roamed"):
                    hooks.append(f"{cls.name}.{func.name}")
                if func.name in TRANSITIONS:
                    clears += [f"core/{path.name}:{call.lineno} {cls.name}.{func.name}"
                               for call in ast.walk(func) if isinstance(call, ast.Call)
                               and _chain(call.func)[-1] == "clear"]
    assert sorted(hooks) == sorted(DECLARED_HOOKS)
    assert clears == []


def test_a_record_is_declared_not_written_out():
    """``core/protocol.py``: no hand-written ``size_bytes()``, every record
    goes through ``@record``, and nothing is imported inside a function."""
    tree = ast.parse((SRC / "core" / "protocol.py").read_text())
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert "size_bytes" not in {f.name for f in functions}
    assert [f.name for f in functions for n in ast.walk(f)
            if isinstance(n, (ast.Import, ast.ImportFrom))] == []
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    assert len(classes) == 25
    assert all(isinstance(d, ast.Call) and d.func.id == "record"
               for cls in classes for d in cls.decorator_list)
    rim = ast.parse((SRC / "registry" / "rim.py").read_text())
    description = next(n for n in rim.body if isinstance(n, ast.ClassDef)
                       and n.name == "RegistryDescription")
    assert "size_bytes" not in {n.name for n in description.body
                                if isinstance(n, ast.FunctionDef)}


def test_the_busy_correlation_id_is_looked_up_not_laddered():
    tree = ast.parse((SRC / "core" / "admission.py").read_text())
    request_id_of = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
                         and n.name == "request_id_of")
    assert _calls(request_id_of, "isinstance") == []
    service = (SRC / "core" / "service_node.py").read_text()
    assert "_BUSY_ECHOES" not in service


#: ``Node``'s reporting seam: the only functions that may touch the run's
#: books (and the one test of "attached to a deployment with a monitor").
SEAM = {"trace", "metrics", "count", "observe", "gauge", "alias", "note",
        "recovered", "span", "end", "headers_for", "_health", "answered"}


def _reporting_sources():
    """``(label, tree)`` per module an agent lives in: every file under
    ``core/``, and ``netsim/node.py`` with the seam's own functions cut out."""
    for path in sorted((SRC / "core").glob("*.py")):
        yield f"core/{path.name}", ast.parse(path.read_text())
    tree = ast.parse((SRC / "netsim" / "node.py").read_text())
    node_class = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                      and n.name == "Node")
    assert SEAM <= {n.name for n in node_class.body if isinstance(n, ast.FunctionDef)}
    node_class.body = [n for n in node_class.body
                       if not (isinstance(n, ast.FunctionDef) and n.name in SEAM)]
    yield "netsim/node.py", tree


def _chain(node: ast.AST) -> list[str]:
    """``a.b.c`` as ``["a", "b", "c"]`` (calls and subscripts looked through)."""
    names = []
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        else:
            node = node.func if isinstance(node, ast.Call) else node.value
    names.append(getattr(node, "id", ""))
    return names[::-1]


def test_what_happened_is_said_through_the_seam():
    """No protocol agent reaches the metrics registry, the recovery
    statistics or the trace recorder itself: it calls ``count`` /
    ``observe`` / ``gauge`` / ``note`` / ``recovered`` / ``span`` / ``end``
    on its node, which alone knows whether there is anything to write to."""
    found = []
    for label, tree in _reporting_sources():
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
                continue
            chain = _chain(call.func)
            if chain[-2:] in (["metrics", "counter"], ["metrics", "histogram"],
                              ["metrics", "gauge"], ["stats", "record_recovery"]) \
                    or chain[-1] in ("event", "start_span", "end_span"):
                found.append(f"{label}:{call.lineno} {'.'.join(chain)}")
    assert found == []


def _none_tests(tree: ast.AST, name: str) -> int:
    """``<…>.name is None`` / ``is not None`` comparisons in ``tree``."""
    return sum(
        1 for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(isinstance(c, ast.Constant) and c.value is None for c in node.comparators)
        and _chain(node.left)[-1] == name
    )


def test_nobody_but_the_seam_asks_whether_there_is_anyone_to_tell():
    """``health.active`` is asked nowhere under ``core/`` or in ``Node`` (a
    monitor exists only where it is on; the seam reaches it through the
    network's one optional slot); and the "am I attached" / "is there a recorder" tests that
    used to guard every report stay deleted (40 and 28 before the seam —
    what is left is ``Node.sim`` / ``trace`` / ``metrics``, three ``send``
    errors, two ``_now()`` defaults, ``describe()``'s ``issued_at``, the
    rebalance arm, and the seam's own)."""
    asks_health = [
        f"{label}:{node.lineno}" for label, tree in _reporting_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _chain(node)[-2:] == ["health", "active"]
    ]
    assert asks_health == []
    core = [ast.parse(p.read_text()) for p in sorted((SRC / "core").glob("*.py"))]
    node_py = ast.parse((SRC / "netsim" / "node.py").read_text())
    netsim = [ast.parse(p.read_text()) for p in sorted((SRC / "netsim").glob("*.py"))]
    assert sum(_none_tests(tree, "network") for tree in [*core, node_py]) <= 12
    assert sum(_none_tests(tree, "trace") for tree in [*core, *netsim]) <= 3


def _harness_spans():
    """``benchmarks/perf/spans.py``, loaded by path (read-only)."""
    spec = importlib.util.spec_from_file_location(
        "_perf_spans", REPO / "benchmarks" / "perf" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Peer(Node):
    """Stands in for a service and a client; keeps what it is sent."""

    def __init__(self, node_id="peer"):
        super().__init__(node_id)
        self.inbox = []

    def handle_message(self, envelope):
        self.inbox.append(envelope)


def test_the_wall_clock_harness_stays_attached():
    """The harness wraps these methods *on their classes*, most of them
    after the deployment is built: each must be an attribute of the class
    it names, and the ones the write path, the restart and the receive
    path reach must be looked up when called — a bound method captured at
    construction would leave the harness timing nothing."""
    spans = _harness_spans()
    targets = spans.TIMER_TARGETS + spans.HOT_TARGETS + spans.RECOVER_TARGETS
    missing = [f"{cls.__name__}.{attr}" for cls, attr, _ in targets
               if attr not in cls.__dict__]
    assert missing == []

    system, registry = _registry(DiscoveryConfig(
        lease_duration=5.0, purge_interval=0.5, beacon_interval=None,
        durability=DurabilityConfig(enabled=True, snapshot_interval=None),
        admission=AdmissionPolicy(query_cost=0.001, publish_cost=0.001,
                                  renew_cost=0.001),
    ))
    peer = system.network.add_node(_Peer(), "lan-0")
    rerouted = tuple(t for t in targets
                     if t[0] in (DurabilityManager, AdmissionController))
    rec = spans.SpanRecorder()

    def publish(ad_id, lease_duration=None):
        peer.send(registry.node_id, protocol.PUBLISH, protocol.PublishPayload(
            service_node=peer.node_id, service_name=ad_id, endpoint="svc://x",
            model_id="uri", description=UriDescription("ncw:RadarService", "svc://x"),
            ad_id=ad_id, lease_duration=lease_duration,
        ))

    with spans.patched(rec, rerouted):  # after the build, as run.per_layer does
        publish("ad-kept")
        publish("ad-lapsing", lease_duration=1.0)
        system.run_for(0.2)
        lease_id = next(e.payload.lease_id for e in peer.inbox
                        if e.msg_type == protocol.PUBLISH_ACK
                        and e.payload.ad_id == "ad-kept")
        peer.send(registry.node_id, protocol.RENEW,
                  protocol.RenewPayload(lease_id=lease_id, ad_id="ad-kept"))
        system.run_for(2.0)  # ad-lapsing expires
        peer.send(registry.node_id, protocol.QUERY, protocol.QueryPayload(
            query_id="q", model_id="uri", query=UriQuery("ncw:RadarService")))
        peer.send(registry.node_id, protocol.REMOVE,
                  protocol.RemovePayload(ad_id="ad-kept"))
        system.run_for(0.2)
        registry.durability.snapshot()
        registry.crash()
        registry.restart()
    entered = {name for name in rec.names if rec.durations_ns(name)}
    assert entered == {f"{cls.__name__}.{attr}" for cls, attr, _ in rerouted}
    assert [e.payload.query_id for e in peer.inbox
            if e.msg_type == protocol.QUERY_RESPONSE] == ["q"]
