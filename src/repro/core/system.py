"""High-level facade: build and run a discovery deployment in a few lines.

:class:`DiscoverySystem` wires the simulator, network, ontology, and the
three node roles together, and provides synchronous helpers so examples
and experiments read naturally::

    system = DiscoverySystem(seed=7, ontology=emergency_ontology())
    system.add_lan("hq")
    system.add_registry("hq")
    system.add_service("hq", profile)
    client = system.add_client("hq")
    system.run(until=2.0)                      # bootstrap settles
    call = system.discover(client, request)    # runs until completion
    print(call.service_names())
"""

from __future__ import annotations

import itertools

from repro.core.client_node import ClientNode, DiscoveryCall
from repro.core.config import DiscoveryConfig
from repro.core.registry_node import RegistryNode
from repro.core.service_node import ServiceNode
from repro.descriptions.base import DescriptionModel
from repro.descriptions.semantic import SemanticModel
from repro.descriptions.template import TemplateModel
from repro.descriptions.uri import UriModel
from repro.errors import ReproError
from repro.netsim.messages import SizeModel
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.obs.health import HealthMonitor
from repro.registry.advertisements import reset_uuids
from repro.semantics.ontology import Ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest

#: Model sets selectable by name when building nodes.
ALL_MODEL_IDS = ("uri", "template", "semantic")


def make_models(
    ontology: Ontology | None,
    include: tuple[str, ...] = ALL_MODEL_IDS,
    *,
    with_ontology: bool = True,
) -> list[DescriptionModel]:
    """Fresh description-model plug-ins for one node.

    Each node gets its own instances (so per-node counters stay separate)
    while semantic models share the same :class:`Ontology` object.
    ``with_ontology=False`` builds a semantic model that cannot evaluate
    until it fetches the ontology from the registry network (E12).
    """
    models: list[DescriptionModel] = []
    for model_id in include:
        if model_id == "uri":
            models.append(UriModel())
        elif model_id == "template":
            models.append(TemplateModel())
        elif model_id == "semantic":
            models.append(SemanticModel(ontology if with_ontology else None))
        else:
            raise ReproError(f"unknown description model {model_id!r}")
    return models


class DiscoverySystem:
    """Builder and runner for one simulated discovery deployment."""

    def __init__(
        self,
        *,
        seed: int = 0,
        config: DiscoveryConfig | None = None,
        ontology: Ontology | None = None,
        size_model: SizeModel | None = None,
        loss_rate: float = 0.0,
    ) -> None:
        reset_uuids()  # ids restart per system: same seed ⇒ same ad ids
        self.config = config or DiscoveryConfig()
        self.ontology = ontology
        self.sim = Simulator(seed=seed)
        self.network = Network(
            self.sim, size_model=size_model, loss_rate=loss_rate
        )
        #: The run's health monitor where ``config.health`` enables the
        #: layer, else ``None``; nodes reach it through their network.
        self.health: HealthMonitor | None = None
        if self.config.health.enabled:
            self.health = HealthMonitor(lambda: self.sim.now, self.network.metrics,
                                        self.config.health)
            self.health.attach(self.sim)
            self.network.health = self.health
        self.registries: list[RegistryNode] = []
        self.services: list[ServiceNode] = []
        self.clients: list[ClientNode] = []
        self._counters = {"registry": itertools.count(), "svc": itertools.count(),
                          "client": itertools.count()}
        self._started = False

    # -- topology ------------------------------------------------------------

    def add_lan(self, name: str, *, wan_connected: bool = True) -> str:
        """Create a LAN segment; returns its name."""
        self.network.add_lan(name, wan_connected=wan_connected)
        return name

    def add_registry(
        self,
        lan: str,
        *,
        node_id: str | None = None,
        model_ids: tuple[str, ...] = ALL_MODEL_IDS,
        seeds: tuple[str, ...] = (),
        with_ontology: bool = True,
        capacity: int | None = None,
    ) -> RegistryNode:
        """Add a registry node on ``lan``; ``seeds`` are WAN federation peers.

        ``with_ontology=False`` models a registry deployed without the
        shared ontology: it cannot evaluate semantic queries (and hosts no
        ontology artifact) until federation artifact sync delivers one
        (experiment E12). ``capacity`` bounds stored advertisements
        (asymmetric device resources); publishes beyond it are NACKed.
        """
        node_id = node_id or f"registry-{next(self._counters['registry']):02d}"
        registry = RegistryNode(
            node_id,
            self.config,
            make_models(self.ontology, model_ids, with_ontology=with_ontology),
            seeds=seeds,
            capacity=capacity,
        )
        self.network.add_node(registry, lan)
        self.registries.append(registry)
        if self.ontology is not None and with_ontology:
            registry.repository.store(self.ontology.name, self.ontology)
        self._schedule_start(registry)
        return registry

    def add_standby_registry(
        self,
        lan: str,
        *,
        node_id: str | None = None,
        model_ids: tuple[str, ...] = ALL_MODEL_IDS,
        lan_target: int = 1,
        seeds: tuple[str, ...] = (),
    ):
        """Add a dormant standby registry implementing the LAN quota policy
        ("try to maintain N registries on each LAN" — §4.9).

        ``seeds`` are WAN federation peers the standby joins *if* it is
        ever promoted — and, with warm sync enabled, the peers it
        anti-entropy-pulls its initial store from.
        """
        from repro.core.standby import StandbyRegistry

        node_id = node_id or f"standby-{next(self._counters['registry']):02d}"
        standby = StandbyRegistry(
            node_id,
            self.config,
            make_models(self.ontology, model_ids),
            lan_target=lan_target,
            seeds=seeds,
        )
        self.network.add_node(standby, lan)
        self.registries.append(standby)
        if self.ontology is not None:
            standby.repository.store(self.ontology.name, self.ontology)
        self._schedule_start(standby)
        return standby

    def add_service(
        self,
        lan: str,
        profile: ServiceProfile,
        *,
        node_id: str | None = None,
        model_ids: tuple[str, ...] = ALL_MODEL_IDS,
        seeds: tuple[str, ...] = (),
    ) -> ServiceNode:
        """Add a service node hosting ``profile`` on ``lan``; ``seeds`` are
        manually configured registry endpoints it attaches to (the first)
        instead of probing."""
        node_id = node_id or f"svc-node-{next(self._counters['svc']):03d}"
        service = ServiceNode(
            node_id,
            self.config,
            profile,
            make_models(self.ontology, model_ids),
            seeds=seeds,
        )
        self.network.add_node(service, lan)
        self.services.append(service)
        self._schedule_start(service)
        return service

    def add_client(
        self,
        lan: str,
        *,
        node_id: str | None = None,
        model_ids: tuple[str, ...] = ALL_MODEL_IDS,
        with_ontology: bool = True,
        seeds: tuple[str, ...] = (),
    ) -> ClientNode:
        """Add a client node on ``lan``; ``seeds`` as for :meth:`add_service`."""
        node_id = node_id or f"client-{next(self._counters['client']):03d}"
        client = ClientNode(
            node_id,
            self.config,
            make_models(self.ontology, model_ids, with_ontology=with_ontology),
            seeds=seeds,
        )
        self.network.add_node(client, lan)
        self.clients.append(client)
        self._schedule_start(client)
        return client

    def federate(self, a: RegistryNode, b: RegistryNode) -> None:
        """Manually seed a WAN federation link between two registries.

        The link is recorded as *seed configuration* on both ends (the
        paper's "manual configuration, or seeding"), so a registry that
        crashes and restarts re-joins its seeded peers instead of staying
        isolated from the WAN.
        """
        a.seeds = tuple(sorted(set(a.seeds) | {b.node_id}))
        b.seeds = tuple(sorted(set(b.seeds) | {a.node_id}))
        self.sim.schedule(0.0, lambda: a.federation.join(b.node_id))

    def federate_chain(self, registries: list[RegistryNode] | None = None) -> None:
        """Seed a line topology across the given (default: all) registries."""
        nodes = registries if registries is not None else self.registries
        for left, right in zip(nodes, nodes[1:]):
            self.federate(left, right)

    def federate_ring(self, registries: list[RegistryNode] | None = None) -> None:
        """Seed a ring topology (a chain plus the closing link)."""
        nodes = registries if registries is not None else self.registries
        self.federate_chain(nodes)
        if len(nodes) > 2:
            self.federate(nodes[-1], nodes[0])

    def federate_mesh(self, registries: list[RegistryNode] | None = None) -> None:
        """Seed a full mesh among the given (default: all) registries."""
        nodes = registries if registries is not None else self.registries
        for i, left in enumerate(nodes):
            for right in nodes[i + 1:]:
                self.federate(left, right)

    def _schedule_start(self, node) -> None:
        self.sim.schedule(0.0, node.start)

    def move(self, node, new_lan: str) -> None:
        """Roam a client or service node to another LAN (mobility).

        The node re-bootstraps there: clients re-probe and re-attach;
        services republish locally while their old advertisements lapse
        with their leases.
        """
        self.network.move_node(node.node_id, new_lan)

    # -- running -----------------------------------------------------------------

    def run(self, until: float) -> float:
        """Advance the simulation to absolute time ``until``."""
        return self.sim.run(until=until)

    def run_for(self, duration: float) -> float:
        """Advance the simulation by ``duration`` seconds."""
        return self.sim.run(until=self.sim.now + duration)

    def discover(
        self,
        client: ClientNode,
        request: ServiceRequest,
        *,
        model_id: str = "semantic",
        ttl: int | None = None,
        timeout: float = 30.0,
    ) -> DiscoveryCall:
        """Issue a query and run the simulator until it completes.

        The synchronous convenience wrapper around
        :meth:`ClientNode.discover` used by examples and experiments.
        """
        call = client.discover(request, model_id=model_id, ttl=ttl)
        deadline = self.sim.now + timeout
        while not call.completed and self.sim.step(until=deadline):
            pass
        if not call.completed:
            # Timed out: no event at or before the deadline can complete
            # the call. Clamp the clock to the deadline (events beyond it
            # stay queued) instead of running arbitrarily far past it.
            call.timed_out = True
            self.sim.advance_to(deadline)
        return call

    # -- reporting ------------------------------------------------------------------

    @property
    def trace(self):
        """This run's :class:`~repro.obs.tracing.TraceRecorder`."""
        return self.sim.trace

    @property
    def metrics(self):
        """This run's :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self.network.metrics

    def traffic(self) -> dict[str, int]:
        """Global traffic counters so far."""
        return self.network.stats.snapshot()

    def alive_services(self) -> list[ServiceNode]:
        """Service nodes currently up."""
        return [s for s in self.services if s.alive]
