"""E1 — Figure 1 / §3: the three discovery topologies, measured.

The paper's Figure 1 is a taxonomy sketch: decentralized (a), centralized
(b), distributed (c). §3 attaches qualitative costs to each. This
experiment instantiates all three on one LAN (the paper's §3 treats
topology abstractly, before the LAN/WAN split of §4.4) with identical
service populations and query workloads, and measures what §3 claims:

* decentralized — highest total query bandwidth (multicast query + one
  response per matching provider), zero maintenance traffic, load spread
  over all provider nodes;
* centralized — cheapest queries (one unicast round-trip), but
  publish/renew maintenance and the highest single-node load;
* distributed — between the two, with maintenance traffic plus bounded
  query fan-out among the registries.
"""

from __future__ import annotations

from repro.core.config import DiscoveryConfig
from repro.experiments.common import ExperimentResult, mean
from repro.metrics.bandwidth import TrafficWindow
from repro.metrics.retrieval import score_queries
from repro.workloads.queries import play
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans

ARCHITECTURES = ("decentralized", "centralized", "distributed")

#: Registries per architecture on the single LAN.
_REGISTRY_COUNT = {"decentralized": 0, "centralized": 1, "distributed": 3}


def run(
    *,
    service_counts: tuple[int, ...] = (4, 8, 16),
    n_clients: int = 3,
    n_queries: int = 12,
    maintenance_window: float = 30.0,
    seed: int = 0,
) -> ExperimentResult:
    """Sweep population size across the three topologies."""
    result = ExperimentResult(
        experiment="E1",
        description="service discovery topologies (Fig. 1): bandwidth, load, recall",
    )
    for n_services in service_counts:
        for arch in ARCHITECTURES:
            _add_row(result, arch, n_services, n_clients, n_queries,
                     maintenance_window, seed)
    result.note(
        "decentralized pays per-query multicast + per-provider responses; "
        "centralized pays maintenance and concentrates load; distributed "
        "sits between (paper §3)."
    )
    return result


def _add_row(
    result: ExperimentResult,
    arch: str,
    n_services: int,
    n_clients: int,
    n_queries: int,
    maintenance_window: float,
    seed: int,
) -> None:
    spec = ScenarioSpec(
        lan_names=lans(1),
        registries_per_lan=_REGISTRY_COUNT[arch],
        services_per_lan=n_services,
        clients_per_lan=n_clients,
        federation="none",
        seed=seed,
    )
    built = build_scenario(
        spec, config=DiscoveryConfig(lease_duration=20.0, purge_interval=5.0),
        with_registries=_REGISTRY_COUNT[arch] > 0,
    )
    system = built.system
    system.run(until=2.0)

    # Maintenance phase: no queries, just upkeep.
    upkeep = TrafficWindow.open(system.network.stats, system.sim.now)
    system.run_for(maintenance_window)
    upkeep_report = upkeep.close(system.sim.now)

    # Query phase.
    played = play(built, n_queries, drain=8.0)
    completed = played.completed
    max_node, max_load = system.network.stats.max_node_load()
    latency = played.latency
    result.metrics[f"query.e2e_latency[{arch}/{n_services}]"] = latency
    result.add(
        arch=arch,
        services=n_services,
        queries_done=len(completed),
        recall=score_queries(played.issued).recall,
        mean_responses=mean(q.call.responses for q in completed),
        query_bytes_per_q=played.window.query_bytes() / max(len(completed), 1),
        upkeep_bytes_per_s=upkeep_report["bytes_per_second"],
        max_node_load_bytes=max_load,
        max_node=max_node,
        p50_ms=latency["p50"] * 1000.0,
        p95_ms=latency["p95"] * 1000.0,
        p99_ms=latency["p99"] * 1000.0,
    )
