"""UDDI baseline: a centralized registry without aliveness information.

What makes it UDDI-like, per the paper's critique:

* **Manual configuration** — there is no registry discovery; clients and
  services are seeded with the registry endpoint ("registries may be
  discovered … by manually configuring the registry endpoint").
* **No leasing** — "Neither UDDI nor ebXML use leasing, and are dependent
  on services actively de-registering themselves. This is of course not
  possible in the event of a service provider crash, and is a serious
  shortcoming." Advertisements of crashed services linger forever
  (experiment E4).
* **Single point of failure** — one registry; when it is down, discovery
  is down (experiment E3).

The registry still supports all description models through the generic
stack: the paper's criticism is about *distribution*, not description, and
keeping the stack identical isolates exactly that variable.
"""

from __future__ import annotations

from repro.core.client_node import ClientNode
from repro.core.config import DiscoveryConfig
from repro.core.registry_node import RegistryNode
from repro.core.service_node import ServiceNode
from repro.core.system import ALL_MODEL_IDS, DiscoverySystem, make_models
from repro.netsim.messages import Envelope, SizeModel
from repro.semantics.ontology import Ontology
from repro.semantics.profiles import ServiceProfile


def uddi_config(**overrides) -> DiscoveryConfig:
    """The deployment configuration modelling UDDI's behaviour."""
    defaults = dict(
        leasing_enabled=False,
        beacon_interval=None,
        signalling_interval=None,
        gateway_election=False,
        fallback_enabled=False,
        default_ttl=0,
    )
    defaults.update(overrides)
    return DiscoveryConfig(**defaults)


class UddiRegistry(RegistryNode):
    """A registry that does not participate in dynamic discovery."""

    role = "uddi-registry"

    def handle_registry_probe(self, envelope: Envelope) -> None:
        """UDDI has no multicast discovery: probes go unanswered."""

    def start(self) -> None:
        """No beacons, no purge, no federation probing — just passive serving."""
        self._begin_serving()


class UddiClient(ClientNode):
    """A client with a manually configured registry endpoint."""

    role = "uddi-client"

    def __init__(self, node_id: str, config: DiscoveryConfig, models, registry_id: str) -> None:
        super().__init__(node_id, config, models)
        self._registry_id = registry_id

    def start(self) -> None:
        self.tracker.seed(self._registry_id)


class UddiServiceNode(ServiceNode):
    """A service with a manually configured registry endpoint.

    Without leasing it sends no renewals; the only cleanup path is
    :meth:`~repro.core.service_node.ServiceNode.deregister` — which a
    crash never runs.
    """

    role = "uddi-service"

    def __init__(self, node_id, config, profile, models, registry_id: str) -> None:
        super().__init__(node_id, config, profile, models)
        self._registry_id = registry_id

    def start(self) -> None:
        self.tracker.seed(self._registry_id)


class UddiSystem(DiscoverySystem):
    """A deployment built around one central UDDI-like registry."""

    def __init__(self, *, seed: int = 0, ontology: Ontology | None = None,
                 size_model: SizeModel | None = None, loss_rate: float = 0.0,
                 config: DiscoveryConfig | None = None) -> None:
        super().__init__(
            seed=seed,
            config=config or uddi_config(),
            ontology=ontology,
            size_model=size_model,
            loss_rate=loss_rate,
        )
        self.registry: UddiRegistry | None = None

    def add_registry(self, lan, *, node_id=None, model_ids=ALL_MODEL_IDS,
                     seeds=(), with_ontology=True, capacity=None):
        """Place *the* central registry; only one is allowed.

        ``seeds`` is accepted for signature compatibility but ignored:
        UDDI registries do not federate.
        """
        if self.registry is not None:
            raise ValueError("a UDDI deployment has exactly one registry")
        node_id = node_id or "uddi-registry"
        registry = UddiRegistry(
            node_id, self.config,
            make_models(self.ontology, model_ids, with_ontology=with_ontology),
            capacity=capacity,
        )
        self.network.add_node(registry, lan)
        self.registries.append(registry)
        if self.ontology is not None and with_ontology:
            registry.store_artifact(self.ontology.name, self.ontology)
        self._schedule_start(registry)
        self.registry = registry
        return registry

    def add_client(self, lan, *, node_id=None, model_ids=ALL_MODEL_IDS, with_ontology=True):
        if self.registry is None:
            raise ValueError("add the registry before clients")
        node_id = node_id or f"client-{next(self._counters['client']):03d}"
        client = UddiClient(
            node_id,
            self.config,
            make_models(self.ontology, model_ids, with_ontology=with_ontology),
            self.registry.node_id,
        )
        self.network.add_node(client, lan)
        self.clients.append(client)
        self._schedule_start(client)
        return client

    def add_service(self, lan, profile: ServiceProfile, *, node_id=None,
                    model_ids=ALL_MODEL_IDS):
        if self.registry is None:
            raise ValueError("add the registry before services")
        node_id = node_id or f"svc-node-{next(self._counters['svc']):03d}"
        service = UddiServiceNode(
            node_id,
            self.config,
            profile,
            make_models(self.ontology, model_ids),
            self.registry.node_id,
        )
        self.network.add_node(service, lan)
        self.services.append(service)
        self._schedule_start(service)
        return service


def build_uddi_system(*, seed: int = 0, ontology: Ontology | None = None,
                      registry_lan: str = "lan-0", lans: tuple[str, ...] = ("lan-0",),
                      loss_rate: float = 0.0) -> UddiSystem:
    """Convenience: a UDDI deployment with its LANs and registry placed."""
    system = UddiSystem(seed=seed, ontology=ontology, loss_rate=loss_rate)
    for lan in lans:
        system.add_lan(lan)
    system.add_registry(registry_lan)
    return system
