"""Scenario builders: populate a discovery deployment from a spec.

A :class:`ScenarioSpec` fixes the topology (LANs, registries per LAN,
services per LAN, clients per LAN), the ontology, the federation shape
and the compared architecture; :func:`build_scenario` instantiates it, so
the same workload runs unchanged on the paper's architecture and on every
baseline.

The baselines the paper argues against differ from its architecture in
*distribution and aliveness* — manual endpoints, no leasing, one point of
failure, LAN-only multicast — not in code. Each is therefore a row of
:data:`ARCHITECTURES`: configuration values plus where its registries go,
built onto the one :class:`~repro.core.DiscoverySystem`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.system import ALL_MODEL_IDS, DiscoverySystem
from repro.errors import WorkloadError
from repro.semantics.generator import ProfileGenerator, battlefield_ontology, emergency_ontology
from repro.semantics.ontology import Ontology
from repro.semantics.profiles import ServiceProfile

#: :attr:`Architecture.registry` for "the spec's registries on every LAN".
PER_LAN = "per-lan"


def lans(n: int) -> tuple[str, ...]:
    """The LAN names ``lan-0`` .. ``lan-{n-1}``."""
    return tuple(f"lan-{i}" for i in range(n))


@dataclass(frozen=True)
class Architecture:
    """One compared deployment of the same system.

    ``overrides`` are :class:`DiscoveryConfig` values set over the
    caller's configuration. ``registry`` places the registries:
    :data:`PER_LAN` puts the spec's ``registries_per_lan`` on every LAN,
    federated as the spec says; a node id puts that one registry on the
    first LAN; ``None`` puts none. ``seeded`` gives every client and
    service that registry's endpoint instead of letting them probe for
    one — UDDI's manual configuration. ``hosts_ontology`` is whether the
    registries also serve the shared ontology for nodes to fetch (§4.6).
    """

    overrides: Mapping[str, Any] = field(default_factory=dict)
    registry: str | None = PER_LAN
    seeded: bool = False
    hosts_ontology: bool = True

    def config(self, base: DiscoveryConfig | None = None) -> DiscoveryConfig:
        """``base`` (default: every default) with this row's values set."""
        return replace(base or DiscoveryConfig(), **self.overrides)


#: Every compared architecture, by the name experiments report it under.
ARCHITECTURES: dict[str, Architecture] = {
    # The paper's: leased, beaconing, federated registries on every LAN.
    "federated": Architecture(),
    # "One registry is replicated on several nodes" (§3.3): each member
    # holds every advertisement and answers locally.
    "cluster": Architecture({
        "cooperation": COOPERATION_REPLICATE_ADS, "default_ttl": 0,
        "gateway_election": False,
    }),
    # One central registry at a manually configured endpoint; no leasing,
    # so a crashed service's advertisement lingers (§3.2, §4.8).
    "uddi": Architecture({
        "leasing_enabled": False, "beacon_interval": None, "signalling_interval": None,
        "fallback_enabled": False, "gateway_election": False, "default_ttl": 0,
    }, registry="uddi-registry", seeded=True),
    # WS-Discovery ad hoc: no registry; every query is a LAN multicast the
    # services answer for themselves.
    "wsd-adhoc": Architecture({
        "leasing_enabled": False, "beacon_interval": None, "signalling_interval": None,
        "fallback_enabled": True, "gateway_election": False, "default_ttl": 0,
    }, registry=None),
    # WS-Discovery with a discovery proxy, found by its HELLO beacons; it
    # has no leasing either, so it goes stale like UDDI, and is no
    # ontology repository.
    "wsd-proxy": Architecture({
        "leasing_enabled": False, "beacon_interval": 5.0, "signalling_interval": None,
        "fallback_enabled": True, "gateway_election": False, "default_ttl": 0,
    }, registry="wsd-proxy-00", hosts_ontology=False),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A reproducible deployment description.

    Only ``lan_names`` is required; a spec writes what differs from the
    defaults. ``federation`` selects how WAN seeding wires the
    registries: ``"chain"``, ``"ring"``, ``"mesh"``, or ``"none"``.
    ``architecture`` names a row of :data:`ARCHITECTURES`. ``name`` is a
    label nothing reads.
    """

    lan_names: tuple[str, ...]
    name: str = ""
    ontology_factory: Callable[[], Ontology] = battlefield_ontology
    registries_per_lan: int = 1
    services_per_lan: int = 4
    clients_per_lan: int = 1
    federation: str = "ring"
    model_ids: tuple[str, ...] = ALL_MODEL_IDS
    seed: int = 0
    architecture: str = "federated"

    def total_services(self) -> int:
        return self.services_per_lan * len(self.lan_names)


@dataclass
class BuiltScenario:
    """The instantiated deployment plus its workload materials."""

    spec: ScenarioSpec
    system: DiscoverySystem
    ontology: Ontology
    generator: ProfileGenerator
    profiles: list[ServiceProfile] = field(default_factory=list)

    @property
    def clients(self):
        return self.system.clients

    @property
    def services(self):
        return self.system.services

    @property
    def registries(self):
        return self.system.registries

    def profile_of(self, service_name: str) -> ServiceProfile:
        """Look up a generated profile by its service name."""
        for profile in self.profiles:
            if profile.service_name == service_name:
                return profile
        raise WorkloadError(f"unknown service {service_name!r}")


def build_scenario(
    spec: ScenarioSpec,
    *,
    config: DiscoveryConfig | None = None,
    loss_rate: float = 0.0,
    with_registries: bool = True,
) -> BuiltScenario:
    """Instantiate a spec as its architecture deploys it.

    ``config`` is the base the architecture's values are set over.
    ``with_registries`` disabled gives the pure decentralized topology
    (E1) whatever the architecture.
    """
    architecture = ARCHITECTURES.get(spec.architecture)
    if architecture is None:
        raise WorkloadError(f"unknown architecture {spec.architecture!r}; "
                            f"choose from {sorted(ARCHITECTURES)}")
    ontology = spec.ontology_factory()
    system = DiscoverySystem(
        seed=spec.seed, config=architecture.config(config), ontology=ontology,
        loss_rate=loss_rate,
    )
    generator = ProfileGenerator(ontology, seed=spec.seed)
    built = BuiltScenario(spec=spec, system=system, ontology=ontology, generator=generator)

    for lan in spec.lan_names:
        system.add_lan(lan)
    seeds: tuple[str, ...] = ()
    if with_registries and architecture.registry == PER_LAN:
        for lan in spec.lan_names:
            for _ in range(spec.registries_per_lan):
                system.add_registry(lan, model_ids=spec.model_ids)
        _federate(system, spec.federation)
    elif with_registries and architecture.registry is not None:
        system.add_registry(spec.lan_names[0], node_id=architecture.registry,
                            model_ids=spec.model_ids)
        if architecture.seeded:
            seeds = (architecture.registry,)
    if not architecture.hosts_ontology:
        for registry in system.registries:
            registry.repository.rebuild()

    index = 0
    for lan in spec.lan_names:
        for _ in range(spec.services_per_lan):
            profile = generator.random_profile(index, provider=lan)
            built.profiles.append(profile)
            system.add_service(lan, profile, model_ids=spec.model_ids, seeds=seeds)
            index += 1
    for lan in spec.lan_names:
        for _ in range(spec.clients_per_lan):
            system.add_client(lan, model_ids=spec.model_ids, seeds=seeds)
    return built


def _federate(system: DiscoverySystem, shape: str) -> None:
    """Seed WAN links between the LAN gateways (first registry per LAN)."""
    if shape == "none" or len(system.registries) < 2:
        return
    # One representative per LAN: the registry with the lowest id there —
    # intra-LAN peers find each other by multicast and need no seeding.
    by_lan: dict[str, list] = {}
    for registry in system.registries:
        by_lan.setdefault(registry.lan_name or "", []).append(registry)
    gateways = [min(group, key=lambda r: r.node_id) for _lan, group in sorted(by_lan.items())]
    if shape == "chain":
        system.federate_chain(gateways)
    elif shape == "ring":
        system.federate_ring(gateways)
    elif shape == "mesh":
        system.federate_mesh(gateways)
    else:
        raise WorkloadError(f"unknown federation shape {shape!r}")


def crisis_scenario(
    *,
    agencies: int = 4,
    services_per_lan: int = 4,
    clients_per_lan: int = 1,
    registries_per_lan: int = 1,
    federation: str = "ring",
    seed: int = 0,
) -> ScenarioSpec:
    """The §1 crisis-management scenario.

    "Members from several agencies, potentially at different locations,
    have to cooperate … These members carry with them various devices
    that spontaneously form a network where application layer services
    are offered." Each agency is one LAN.
    """
    names = ("medical", "fire", "police", "logistics", "sar", "command",
             "shelter", "transport")
    if agencies < 1 or agencies > len(names):
        raise WorkloadError(f"agencies must be in 1..{len(names)}, got {agencies}")
    return ScenarioSpec(
        lan_names=tuple(f"agency-{n}" for n in names[:agencies]),
        ontology_factory=emergency_ontology,
        registries_per_lan=registries_per_lan,
        services_per_lan=services_per_lan,
        clients_per_lan=clients_per_lan,
        federation=federation,
        seed=seed,
    )


def battlefield_scenario(
    *,
    units: int = 4,
    services_per_lan: int = 5,
    clients_per_lan: int = 2,
    registries_per_lan: int = 1,
    federation: str = "chain",
    seed: int = 0,
) -> ScenarioSpec:
    """The network-centric battlefield scenario (MILCOM companion paper).

    Each tactical unit runs its own LAN (e.g. a company network); the
    chain federation default matches the paper's observation that "a
    hybrid topology probably maps best to a military organization".
    """
    if units < 1 or units > 26:
        raise WorkloadError(f"units must be in 1..26, got {units}")
    return ScenarioSpec(
        lan_names=tuple(f"unit-{chr(ord('a') + i)}" for i in range(units)),
        registries_per_lan=registries_per_lan,
        services_per_lan=services_per_lan,
        clients_per_lan=clients_per_lan,
        federation=federation,
        seed=seed,
    )
