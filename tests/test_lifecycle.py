"""A node's lifecycle is declared once: restart, roam and demote rebuild.

Every protocol agent builds its volatile state — and has each of its
components build theirs — in ``rebuild()``, which its constructor calls; a
restart, a roam and a standby's demotion call it again instead of
clearing fields by name. The table below holds every role to that, under
every row of ``ARCHITECTURES`` where the role exists: after the
transition, a structural snapshot of the node and of everything it owns
(containers by content, pending timers and periodic tasks by callback and
interval) equals that of a node freshly constructed and started, at the
same instant, with the same id, configuration, seeds and seed — except for
the survivors this module declares per class. A constructor field that
fills up during a run and is neither rebuilt nor declared here fails the
table.
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from functools import partial
from types import BuiltinMethodType, FunctionType, MethodType, MethodWrapperType

import pytest

from repro.core import protocol
from repro.core.client_node import ClientNode
from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.registry_node import RegistryNode
from repro.core.routing import ROUTING_COOLDOWN_FAILOVER, RoutingConfig
from repro.core.service_node import ServiceNode
from repro.core.sharding import ShardingConfig, ShardManager
from repro.core.standby import StandbyRegistry
from repro.core.system import ALL_MODEL_IDS, DiscoverySystem, make_models
from repro.core.writes import WriteCoordinator
from repro.descriptions.base import DescriptionModel, ModelRegistry
from repro.descriptions.uri import UriDescription
from repro.netsim.faults import FaultPlan
from repro.netsim.network import Network
from repro.netsim.node import Node, Timer
from repro.netsim.simulator import PeriodicHandle, Simulator
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest
from repro.workloads.scenarios import ARCHITECTURES, PER_LAN, ScenarioSpec, build_scenario

# -- what survives, per class (and its subclasses) ------------------------------

#: Kept across a restart, each for the reason given. Everything else must
#: come back exactly as a freshly built node has it.
RESTART_SURVIVORS: dict[str, frozenset[str]] = {
    # Statistics.
    "Node": frozenset({"crash_count", "unknown_messages", "malformed_messages"}),
    "Subscriptions": frozenset({"notifications_sent"}),
    "QueryCoordinator": frozenset({"responses_sent", "late_responses"}),
    "RegistryInfoModel": frozenset({"publishes", "renews", "removals",
                                    "queries_served", "queries_forwarded"}),
    "StandbyRegistry": frozenset({"promotions", "demotions", "last_promoted_at"}),
    "Federation": frozenset({"joins_sent", "neighbors_lost", "reconnects"}),
    "AntiEntropy": frozenset({"rounds_run", "pulls_sent", "ads_sent", "ads_applied",
                              "removals_applied", "resurrections_blocked",
                              "tombstones_pruned"}),
    "Router": frozenset({"reroutes"}),
    # Statistics, and the write-request counter: a request id must not
    # repeat across a restart, or a pre-crash quorum ack would count
    # toward a new write.
    "WriteCoordinator": frozenset({"_write_seq", *WriteCoordinator.COUNTERS}),
    "ShardManager": frozenset(ShardManager.COUNTERS),
    # The queue-drain audit's books, and the audit id counter behind them.
    "AdmissionController": frozenset({
        "_next_seq", "intercepted", "dispatched", "shed", "busy_sent",
        "lost_on_crash", "max_depth", "shed_by_class", "shed_log",
        "_shed_ids", "_dispatched_ids",
    }),
    # The count of calls issued (a call's ``seq`` keys its retry jitter and
    # must not repeat across a restart), application handles, the artifacts
    # its models accepted, the single-completion oracle's evidence,
    # statistics.
    "ClientNode": frozenset({"calls_issued", "watches", "artifacts_fetched",
                             "recompleted", "fallback_queries", "query_retries",
                             "busy_rejections"}),
    "ServiceNode": frozenset({"publishes_sent", "republish_events", "publish_retries",
                              "renew_retries", "busy_deferrals"}),
    # An advertisement's identity.
    "PublishedAd": frozenset({"ad_id"}),
    # The registries heard of — a cache, not a promise — and statistics.
    "RegistryTracker": frozenset({"known", "probes_sent", "failovers"}),
}

#: Kept across a roam: what a restart keeps, less the registries heard of
#: (they were about the old LAN), plus the calls in flight, which carry on.
ROAM_SURVIVORS = {
    **RESTART_SURVIVORS,
    "RegistryTracker": frozenset({"probes_sent", "failovers"}),
    "ClientNode": RESTART_SURVIVORS["ClientNode"] | {"_by_wire_id"},
}

#: A node's deployment and the models it keeps for life, shown by type only.
OPAQUE = (Network, Simulator, ModelRegistry, DescriptionModel)


# -- the structural snapshot ----------------------------------------------------


def _name(fn) -> str:
    return getattr(getattr(fn, "__func__", fn), "__qualname__", type(fn).__name__)


def _scheduled(guarded) -> str:
    """The callback a node's ``after`` / ``every`` wrapped in ``guarded``."""
    return _name(inspect.getclosurevars(guarded).nonlocals["fn"])


def _key(key) -> str:
    if isinstance(key, Timer):
        return f"timer:{_scheduled(key._handle[2])}"
    return repr(key)


def snapshot(node, survivors) -> dict[str, object]:
    """``node`` and everything it owns, flattened to ``{path: leaf}``.

    Fields are visited in name order, minus the declared survivors of
    each object's classes. A pending timer is its callback and time to
    expiry, a periodic task its callback and interval; a bound method is
    its function and the path of the object it is bound to (so a method
    bound to something the node no longer owns shows); a container or
    object met twice is a reference to where it was met first.
    """
    now = node.sim.now
    flat: dict[str, object] = {}
    seen: dict[int, str] = {}
    bound: list[tuple[str, str, object]] = []

    def visit(obj, path: str) -> None:
        if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
            flat[path] = obj
        elif isinstance(obj, bytearray):
            flat[path] = bytes(obj)
        elif isinstance(obj, OPAQUE):
            flat[path] = f"<{type(obj).__name__}>"
        elif isinstance(obj, Timer):
            flat[path] = (("timer", _scheduled(obj._handle[2]), obj._handle.time - now)
                          if obj.pending else ("timer", "done"))
        elif isinstance(obj, PeriodicHandle):
            flat[path] = ("every", _scheduled(obj._fn), obj._interval, obj._stopped)
        elif isinstance(obj, partial):
            visit(obj.func, f"{path}.func")
            visit(obj.keywords, f"{path}.keywords")
        elif isinstance(obj, (MethodType, BuiltinMethodType, MethodWrapperType)):
            bound.append((path, _name(obj), obj.__self__))
        elif isinstance(obj, (FunctionType, type)):
            flat[path] = ("function", _name(obj))
        elif id(obj) in seen:
            flat[path] = ("same as", seen[id(obj)])
        else:
            if not isinstance(obj, (tuple, frozenset)):
                seen[id(obj)] = path
            if isinstance(obj, dict):
                flat[path] = f"dict({len(obj)})"
                keys: dict[str, int] = {}
                for key, value in obj.items():
                    label = _key(key)
                    keys[label] = keys.get(label, 0) + 1
                    visit(value, f"{path}[{label}#{keys[label]}]")
            elif isinstance(obj, (list, tuple)):
                flat[path] = f"{type(obj).__name__}({len(obj)})"
                for i, value in enumerate(obj):
                    visit(value, f"{path}[{i}]")
            elif isinstance(obj, (set, frozenset)):
                flat[path] = sorted(map(repr, obj))
            else:
                keep = frozenset().union(*(survivors.get(cls.__name__, ())
                                           for cls in type(obj).__mro__))
                names = set(getattr(obj, "__dict__", ()))
                for cls in type(obj).__mro__:
                    slots = getattr(cls, "__slots__", ())
                    names.update([slots] if isinstance(slots, str) else slots)
                flat[path] = type(obj).__name__
                for name in sorted(names - keep):
                    if hasattr(obj, name):
                        visit(getattr(obj, name), f"{path}.{name}")

    visit(node, "")
    for path, name, owner in bound:
        flat[path] = ("method", name, seen.get(id(owner), "<not owned>"))
    return flat


def differences(after: dict, fresh: dict) -> list[str]:
    missing = object()
    return sorted(
        f"{path or '<node>'}: {after.get(path, '<absent>')!r} "
        f"vs fresh {fresh.get(path, '<absent>')!r}"
        for path in after.keys() | fresh.keys()
        if after.get(path, missing) != fresh.get(path, missing)
    )


def fresh_twin(system: DiscoverySystem, node):
    """A node built as ``node`` was — same id, configuration and seeds —
    on its LAN of the same network, started now. It is not registered
    with the network, so the deployment never delivers to it."""
    models = make_models(system.ontology, ALL_MODEL_IDS)
    config = system.config
    if isinstance(node, StandbyRegistry):
        twin = StandbyRegistry(node.node_id, config, models,
                               lan_target=node.lan_target, seeds=node.seeds)
    elif isinstance(node, RegistryNode):
        twin = RegistryNode(node.node_id, config, models,
                            seeds=node.seeds, capacity=node.capacity)
    elif isinstance(node, ClientNode):
        twin = ClientNode(node.node_id, config, models, seeds=node.tracker.seeds)
    else:
        twin = ServiceNode(node.node_id, config, node.profile, models,
                           endpoint=node.endpoint, seeds=node.tracker.seeds)
    twin.attached(system.network, node.lan_name)
    twin.start()
    return twin


def assert_fresh(system, node, survivors) -> None:
    twin = fresh_twin(system, node)
    assert differences(snapshot(node, survivors), snapshot(twin, survivors)) == []


# -- the deployments --------------------------------------------------------------

SPEC = ScenarioSpec(
    name="lifecycle", lan_names=("lan-0", "lan-1"),
    ontology_factory=battlefield_ontology, services_per_lan=2,
    clients_per_lan=1, federation="chain", seed=5,
)


def _first_registry(architecture: str) -> str:
    row = ARCHITECTURES[architecture]
    return "registry-00" if row.registry == PER_LAN else row.registry


def _exercise(built, until: float) -> None:
    """Discover and watch from every client, then run on to ``until`` (off
    the periodic grid, so no task is due at the transition)."""
    system = built.system
    request = built.generator.request_for(built.profiles[0], generalize=1, max_results=5)
    for client in system.clients:
        client.watch(request)
        system.discover(client, request)
    system.run(until=until)


def deployment(architecture: str, *, standby: str | None = None):
    """The spec under ``architecture``, exercised; with ``standby``, plus a
    standby registry on ``lan-0`` — promoted, when ``"active"``, by the
    crash of that LAN's registry."""
    built = build_scenario(replace(SPEC, architecture=architecture))
    system = built.system
    node = system.add_standby_registry("lan-0") if standby else None
    system.run(until=6.0)
    _exercise(built, until=12.37)
    if standby == "active":
        system.network.node(_first_registry(architecture)).crash()
        system.run(until=40.0)
        assert node.active
        _exercise(built, until=43.37)
    return built, node


#: No row of ``ARCHITECTURES`` shards: a sharded replicate-ads federation
#: on three LANs in a chain, R=2, W=2.
SHARDED = "sharded"
SHARDED_CONFIG = DiscoveryConfig(
    cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0, antientropy_interval=2.0,
    sharding=ShardingConfig(enabled=True, replication_factor=2, write_quorum=2),
)


class _Publisher(Node):
    """Stands in for a service; ignores the answers."""

    def handle_message(self, envelope):
        pass


def _sharded_registry(crash_at: float = 12.37):
    """``registry-01`` of the sharded federation at ``crash_at``, with a
    quorum write pending: ``registry-02`` is down, and ``registry-01`` was
    handed a publish whose replica set holds it 1.2 s (timed out) and
    0.2 s (pending) before."""
    built = build_scenario(replace(SPEC, lan_names=("lan-0", "lan-1", "lan-2")),
                           config=SHARDED_CONFIG)
    system = built.system
    system.run(until=6.0)
    _exercise(built, until=9.37)
    coordinator = system.network.node("registry-01")
    silent = system.network.node("registry-02")
    silent.crash()
    publisher = system.network.add_node(_Publisher("publisher"), "lan-1")
    ad_ids = [ad_id for ad_id in (f"ad-held-{i}" for i in range(100))
              if silent.node_id in coordinator.shard.replicas_for(ad_id)]
    for ad_id, at in zip(ad_ids, (crash_at - 1.2, crash_at - 0.2)):
        system.run(until=at)
        publisher.send(coordinator.node_id, protocol.PUBLISH, protocol.PublishPayload(
            service_node=publisher.node_id, service_name=ad_id, endpoint="svc://x",
            model_id="uri", description=UriDescription("ncw:RadarService", "svc://x"),
            ad_id=ad_id,
        ))
    system.run(until=crash_at)
    assert coordinator.writes._writes
    return built, coordinator


#: Rows where a role exists: clients and services everywhere; registries
#: wherever the row places one, and on the sharded federation; standbys
#: wherever registries beacon.
EVERYWHERE = sorted(ARCHITECTURES)
WITH_REGISTRY = sorted(a for a, row in ARCHITECTURES.items() if row.registry is not None)
WITH_STANDBY = sorted(a for a in WITH_REGISTRY
                      if ARCHITECTURES[a].config().beacon_interval is not None)

ROLES = [
    *[("registry", a) for a in [*WITH_REGISTRY, SHARDED]],
    *[("dormant standby", a) for a in WITH_STANDBY],
    *[("active standby", a) for a in WITH_STANDBY],
    *[("client", a) for a in EVERYWHERE],
    *[("service", a) for a in EVERYWHERE],
]


def _node_of(role: str, architecture: str):
    if architecture == SHARDED:
        return _sharded_registry()
    if role.endswith("standby"):
        return deployment(architecture, standby=role.split()[0])
    built, _ = deployment(architecture)
    system = built.system
    return built, {
        "registry": lambda: system.network.node(_first_registry(architecture)),
        "client": lambda: system.clients[0],
        "service": lambda: system.services[0],
    }[role]()


def test_the_table_covers_every_role_and_row():
    assert WITH_REGISTRY == ["cluster", "federated", "uddi", "wsd-proxy"]
    assert WITH_STANDBY == ["cluster", "federated", "wsd-proxy"]
    assert len(ROLES) == 5 + 3 + 3 + 5 + 5


@pytest.mark.parametrize("role,architecture", ROLES)
def test_restart_equals_fresh(role, architecture):
    built, node = _node_of(role, architecture)
    node.crash()
    node.restart()
    assert_fresh(built.system, node, RESTART_SURVIVORS)


@pytest.mark.parametrize("role", ["client", "service"])
@pytest.mark.parametrize("architecture", EVERYWHERE)
def test_roam_equals_constructed_on_the_new_lan(role, architecture):
    built, node = _node_of(role, architecture)
    system = built.system
    at = system.sim.now + 0.21
    applied = FaultPlan().move(at, node.node_id, "lan-1").apply(system)
    system.run(until=at)
    assert applied.counts() == {"move": 1} and node.lan_name == "lan-1"
    assert_fresh(system, node, ROAM_SURVIVORS)


@pytest.mark.parametrize("architecture", WITH_STANDBY)
def test_demote_equals_a_fresh_dormant_standby(architecture):
    built, standby = deployment(architecture, standby="active")
    system = built.system
    system.network.node(_first_registry(architecture)).restart()
    while not standby.demotions:
        assert system.sim.step()
    assert not standby.active
    assert_fresh(system, standby, RESTART_SURVIVORS)


def test_a_field_neither_rebuilt_nor_declared_fails_the_table(monkeypatch):
    """The oracle's own check: a container the constructor sets, that
    fills up during a run, and that ``rebuild()`` leaves alone."""
    built_init = ClientNode.__init__

    def with_history(self, *args, **kwargs):
        built_init(self, *args, **kwargs)
        self.history = []

    monkeypatch.setattr(ClientNode, "__init__", with_history)
    built, client = _node_of("client", "federated")
    client.history.append("a query")
    client.crash()
    client.restart()
    twin = fresh_twin(built.system, client)
    assert differences(snapshot(client, RESTART_SURVIVORS),
                       snapshot(twin, RESTART_SURVIVORS)) == [
        ".history: 'list(1)' vs fresh 'list(0)'",
        ".history[0]: 'a query' vs fresh '<absent>'",
    ]
    survivors = {**RESTART_SURVIVORS,
                 "ClientNode": RESTART_SURVIVORS["ClientNode"] | {"history"}}
    assert differences(snapshot(client, survivors), snapshot(twin, survivors)) == []


# -- regressions ------------------------------------------------------------------

RADAR = ServiceProfile.build("radar", "ncw:RadarService", outputs=["ncw:AirTrack"])
TRACKS = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


def _standby_lan():
    config = DiscoveryConfig(beacon_interval=1, lease_duration=60, purge_interval=1,
                             query_timeout=2, aggregation_timeout=0.3,
                             signalling_interval=2)
    system = DiscoverySystem(seed=31, ontology=battlefield_ontology(), config=config)
    system.add_lan("lan-0")
    primary = system.add_registry("lan-0")
    standby = system.add_standby_registry("lan-0")
    system.run(until=3.0)
    primary.crash()
    system.run_for(10.0)
    assert standby.active
    return system, primary, standby


def test_a_standby_that_crashed_while_active_forgets_its_subscribers():
    """A standby came back from a crash holding its previous life's
    subscriptions and queries in flight: once promoted again it notified
    a subscriber that had never subscribed to this life."""
    system, _primary, standby = _standby_lan()
    client = system.add_client("lan-0", seeds=(standby.node_id,))
    system.run_for(1.0)
    client.watch(TRACKS)
    system.run_for(1.0)
    client.crash()
    standby.crash()
    standby.restart()
    assert len(standby.subscriptions) == 0 and standby.queries._pending == {}
    system.run_for(10.0)
    assert standby.active
    sent = standby.subscriptions.notifications_sent
    system.add_service("lan-0", RADAR)
    system.run_for(3.0)
    assert len(standby.store) == 3
    assert standby.subscriptions.notifications_sent == sent


def test_a_demoted_standby_keeps_nothing_of_its_active_life():
    """A step-down used to leave the ontology in the repository and the
    primary in the federation's known registries."""
    system, primary, standby = _standby_lan()
    primary.restart()
    system.run_for(10.0)
    assert standby.demotions == 1 and not standby.active
    assert standby.repository.names() == []
    assert standby.federation.known == {}


def _routed(role: str):
    config = DiscoveryConfig(routing=RoutingConfig(strategy=ROUTING_COOLDOWN_FAILOVER))
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(), config=config)
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    registry = system.add_registry("lan-0")
    system.add_registry("lan-1")
    node = {"registry": lambda: registry,
            "client": lambda: system.add_client("lan-0"),
            "service": lambda: system.add_service("lan-0", RADAR)}[role]()
    system.run(until=3.0)
    node.router.on_busy("registry-01", retry_after=3.0, queue_depth=4)
    node.router.on_response("registry-01", rtt=0.2)
    node.router.on_timeout("registry-01")
    assert node.router.cooldowns._until == {"registry-01": 3.5}
    assert node.router.health.latency("registry-01") == 0.2
    return system, node


@pytest.mark.parametrize("role", ["registry", "client", "service"])
def test_a_restarted_node_starts_with_a_fresh_router(role):
    _system, node = _routed(role)
    node.crash()
    node.restart()
    assert node.router.cooldowns._until == {}
    assert node.router.health.latency("registry-01") is None
    assert node.router.health.queue_depth("registry-01") is None


@pytest.mark.parametrize("role", ["client", "service"])
def test_a_roamed_node_starts_with_a_fresh_router(role):
    system, node = _routed(role)
    system.move(node, "lan-1")
    assert node.router.cooldowns._until == {}
    assert node.router.health.latency("registry-01") is None

