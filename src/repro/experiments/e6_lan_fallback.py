"""E6 — Figure 3/§4.7: the two LAN discovery modes across a registry outage.

"In dynamic environments, registries may disappear abruptly … If no
registry is available, using decentralized LAN service discovery could
ensure that local services still can be discovered … The use of a
decentralized discovery is a fallback solution."

Timeline on one LAN (registry + services + a client issuing a query every
second):

* phase ``registry``   — normal operation, queries served by the registry;
* phase ``outage``     — the registry crashes; queries time out once, then
  flow over multicast fallback (more bytes per query, but local services
  stay discoverable);
* phase ``recovered``  — the registry restarts; its beacons re-attract the
  client and the service nodes republish (lease NACK → republish path),
  and queries return to cheap unicast.

Reported per phase: success ratio, dominant ``via``, mean query latency,
and query bytes per query — including the paper's expected fallback cost.
"""

from __future__ import annotations

from collections import Counter

from repro.core.config import DiscoveryConfig
from repro.experiments.common import ExperimentResult, mean
from repro.metrics.bandwidth import TrafficWindow
from repro.semantics.generator import emergency_ontology
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans


def run(
    *,
    n_services: int = 4,
    queries_per_phase: int = 8,
    seed: int = 0,
) -> ExperimentResult:
    """Run the crash/fallback/recovery timeline."""
    result = ExperimentResult(
        experiment="E6",
        description="LAN discovery modes across a registry outage (Fig. 3)",
    )
    config = DiscoveryConfig(
        lease_duration=10.0,
        purge_interval=2.0,
        beacon_interval=3.0,
        query_timeout=2.0,
        fallback_timeout=0.5,
    )
    spec = ScenarioSpec(lan_names=lans(1), ontology_factory=emergency_ontology,
                        services_per_lan=n_services, federation="none", seed=seed)
    built = build_scenario(spec, config=config)
    system = built.system
    client = system.clients[0]
    registry = system.registries[0]
    system.run(until=2.0)

    labelled = built.generator.labelled_requests(
        built.profiles, 3 * queries_per_phase, generalize=1
    )
    batches = [
        labelled[0:queries_per_phase],
        labelled[queries_per_phase:2 * queries_per_phase],
        labelled[2 * queries_per_phase:],
    ]

    def run_phase(name: str, batch) -> None:
        window = TrafficWindow.open(system.network.stats, system.sim.now)
        issued = []
        for item in batch:
            call = system.discover(client, item.request, timeout=20.0)
            issued.append((call, item.relevant))
            system.run_for(1.0)
        window.close(system.sim.now)
        completed = [c for c, _rel in issued if c.completed]
        vias = Counter(c.via.split(":")[0] for c in completed)
        recall_values = []
        for call, relevant in issued:
            if call.completed and relevant:
                recall_values.append(
                    len(frozenset(call.service_names()) & relevant) / len(relevant)
                )
        result.add(
            phase=name,
            queries=len(issued),
            completed=len(completed),
            recall=mean(recall_values),
            via=vias.most_common(1)[0][0] if vias else "-",
            mean_latency=mean(c.latency for c in completed),
            query_bytes_per_q=window.query_bytes() / max(len(completed), 1),
        )

    run_phase("registry", batches[0])

    registry.crash()
    system.run_for(1.0)
    run_phase("outage", batches[1])

    registry.restart()
    # Beacons re-attract the client; services republish on lease NACK or
    # via their tracker noticing the registry again.
    system.run_for(15.0)
    run_phase("recovered", batches[2])

    result.note(
        "during the outage the client times out once, fails over to "
        "multicast fallback, and keeps finding local services; after the "
        "restart beacons re-attach everyone and service leases repopulate "
        "the registry."
    )
    return result
