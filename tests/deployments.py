"""Settled deployments that more than one test module discovers against."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.client_node import DiscoveryCall
from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceRequest
from repro.workloads.scenarios import ScenarioSpec, build_scenario

#: Simulated time at which a deployment counts as settled (as in E7).
SETTLE_AT = 12.0


@dataclass
class Deployment:
    """A settled system and a fixed cycle of requests to put to it."""

    system: DiscoverySystem
    #: One per deployed profile, phrased one step more generally than it.
    requests: list[ServiceRequest]
    issued: int = 0

    def discover(self, count: int) -> list[DiscoveryCall]:
        """The next ``count`` discovers of the cycle over clients and
        requests, each run to completion before the next is issued."""
        clients = self.system.clients
        calls = []
        for i in range(self.issued, self.issued + count):
            call = self.system.discover(clients[i % len(clients)],
                                        self.requests[i % len(self.requests)])
            assert call.completed and not call.timed_out, i
            calls.append(call)
        self.issued += count
        return calls


def _settled(spec: ScenarioSpec, traced: bool, **kwargs) -> Deployment:
    built = build_scenario(spec, config=DiscoveryConfig(), **kwargs)
    if traced:
        built.system.trace.capture()
    built.system.run(until=SETTLE_AT)
    requests = [built.generator.request_for(profile, generalize=1, max_results=5)
                for profile in built.profiles]
    return Deployment(built.system, requests)


def e7_ring(seed: int = 7, *, traced: bool = False) -> Deployment:
    """E7's deployment: three ring-federated LANs with one registry, four
    services and one client each. ``traced`` attaches a trace capture
    before the first record."""
    return _settled(ScenarioSpec(
        name="ring", lan_names=("lan-0", "lan-1", "lan-2"),
        ontology_factory=battlefield_ontology, seed=seed,
    ), traced)


def fallback_lan(seed: int = 7, services: int = 20, *, traced: bool = False) -> Deployment:
    """One LAN, no registry: every discover is a multicast that each of
    the ``services`` nodes evaluates on its own (Fig. 3, right)."""
    return _settled(ScenarioSpec(
        name="fallback", lan_names=("lan-0",),
        ontology_factory=battlefield_ontology, registries_per_lan=0,
        services_per_lan=services, clients_per_lan=2, federation="none",
        seed=seed,
    ), traced, with_registries=False)
