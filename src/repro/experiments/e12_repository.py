"""E12 — §4.6/§2: the registry network as ontology repository.

"Moreover, service discovery should work in environments disconnected
from the Internet. In some cases, additional ontologies may be needed by
clients for them to be able to evaluate and use services. Such
functionality could be provided by the discovery service."

Scenario: LAN B's registry is deployed *without* the shared ontology (its
semantic model cannot evaluate), while LAN A's registry hosts the
ontology in its repository. A semantic-only service and a client sit on
LAN B.

* ``sync=off`` — registry B silently discards semantic queries it cannot
  evaluate; the client loses every B-local semantic result (forwarding
  still reaches A, which knows nothing about B's services).
* ``sync=on``  — on federating with A, registry B notices the advertised
  artifact, fetches the ontology over the discovery protocol, attaches
  it, and serves semantic queries normally.
* ``thin-client`` — a client built without the ontology still discovers
  services, because selection is delegated to (ontology-bearing)
  registries — the paper's "limited clients … delegate service selection
  to registry nodes".
"""

from __future__ import annotations

from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.experiments.common import ExperimentResult
from repro.semantics.generator import ProfileGenerator, emergency_ontology


def run(*, n_services: int = 3, n_queries: int = 5, seed: int = 0) -> ExperimentResult:
    """Compare artifact sync on/off, plus the thin-client row."""
    result = ExperimentResult(
        experiment="E12",
        description="ontology repository in the registry network (§4.6)",
    )
    for sync in (False, True):
        result.add(**_run_one(sync, n_services, n_queries, seed))
    result.add(**_thin_client(n_services, n_queries, seed))
    result.note(
        "without artifact sync a semantically-blind registry discards the "
        "queries; the repository mechanism restores full recall at the "
        "cost of one ontology transfer."
    )
    return result


def _build(sync: bool, n_services: int, seed: int):
    ontology = emergency_ontology()
    system = DiscoverySystem(
        seed=seed,
        ontology=ontology,
        config=DiscoveryConfig(artifact_sync=sync),
    )
    system.add_lan("lan-a")
    system.add_lan("lan-b")
    reg_a = system.add_registry("lan-a")
    reg_b = system.add_registry("lan-b", with_ontology=False)
    system.federate(reg_a, reg_b)
    generator = ProfileGenerator(ontology, seed=seed)
    profiles = [generator.random_profile(i) for i in range(n_services)]
    for profile in profiles:
        system.add_service("lan-b", profile, model_ids=("semantic",))
    client = system.add_client("lan-b", model_ids=("semantic",))
    return system, generator, profiles, client, reg_b


def _run_one(sync: bool, n_services: int, n_queries: int, seed: int) -> dict:
    system, generator, profiles, client, reg_b = _build(sync, n_services, seed)
    system.run(until=5.0)
    labelled = generator.labelled_requests(profiles, n_queries, generalize=1)
    hits = 0
    relevant_found = 0
    relevant_total = 0
    for item in labelled:
        call = system.discover(client, item.request)
        returned = frozenset(call.service_names())
        hits += len(returned)
        relevant_found += len(returned & item.relevant)
        relevant_total += len(item.relevant)
    artifact_bytes = system.network.stats.by_type_bytes.get("artifact-reply", 0)
    return {
        "variant": f"sync={'on' if sync else 'off'}",
        "registry_b_can_evaluate": reg_b.models.get("semantic").can_evaluate(),
        "recall": relevant_found / relevant_total if relevant_total else 0.0,
        "queries": n_queries,
        "artifact_bytes": artifact_bytes,
        "discarded_queries": reg_b.evaluator.queries_discarded,
    }


def _thin_client(n_services: int, n_queries: int, seed: int) -> dict:
    """A client without the ontology: registry-side selection carries it."""
    ontology = emergency_ontology()
    system = DiscoverySystem(seed=seed, ontology=ontology)
    system.add_lan("lan-a")
    system.add_registry("lan-a")
    generator = ProfileGenerator(ontology, seed=seed)
    profiles = [generator.random_profile(i) for i in range(n_services)]
    for profile in profiles:
        system.add_service("lan-a", profile, model_ids=("semantic",))
    client = system.add_client("lan-a", model_ids=("semantic",),
                               with_ontology=False)
    system.run(until=3.0)
    labelled = generator.labelled_requests(profiles, n_queries, generalize=1)
    relevant_found = 0
    relevant_total = 0
    for item in labelled:
        call = system.discover(client, item.request)
        relevant_found += len(frozenset(call.service_names()) & item.relevant)
        relevant_total += len(item.relevant)
    return {
        "variant": "thin-client",
        "registry_b_can_evaluate": True,
        "recall": relevant_found / relevant_total if relevant_total else 0.0,
        "queries": n_queries,
        "artifact_bytes": 0,
        "discarded_queries": 0,
    }
