"""E11 — survivability metrics of the three topologies (MILCOM §refs).

The companion paper grounds the hybrid-topology recommendation in
complex-network results: "properties such as low characteristic path
length, good clustering … and robustness to random and targeted failure
are all important for survivability", and "the characteristic path length
should be low … with only a few nodes that have long-range connections.
This matches quite well with the hybrid topology."

We build the three topologies over the *same* node population (6 LANs of
services and clients), take the discovery graph (federation + attachment
edges; LAN cliques for the registry-less case), and compute:

* characteristic path length and clustering coefficient,
* the survivability curve — largest-component fraction as nodes are
  removed uniformly at random vs highest-degree-first (the Albert/Jeong/
  Barabási random-vs-targeted contrast the paper cites).
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.core.config import DiscoveryConfig
from repro.core.invariants import assert_invariants
from repro.experiments.common import ExperimentResult
from repro.metrics.topology import (
    characteristic_path_length,
    clustering_coefficient,
    discovery_graph,
    largest_component_fraction,
    reachability_under_removal,
)
from repro.netsim.faults import removal_order
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans as lan_ids

ARCHITECTURES = ("decentralized", "centralized", "distributed")


def run(
    *,
    lans: int = 6,
    services_per_lan: int = 3,
    removal_fractions: tuple[float, ...] = (0.1, 0.3),
    seed: int = 0,
) -> ExperimentResult:
    """Graph metrics + random/targeted removal curves per topology."""
    result = ExperimentResult(
        experiment="E11",
        description="survivability: path length, clustering, attacks (MILCOM)",
    )
    for arch in ARCHITECTURES:
        graph = _build_graph(arch, lans, services_per_lan, seed)
        base = {
            "arch": arch,
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "path_length": characteristic_path_length(graph),
            "clustering": clustering_coefficient(graph),
            "connected_frac": largest_component_fraction(graph),
        }
        for strategy in ("random", "targeted"):
            order = removal_order(sorted(graph.nodes), strategy,
                                  rng=random.Random(seed), value=graph.degree)
            curve = reachability_under_removal(graph, order)
            row = dict(base)
            row["attack"] = strategy
            for fraction in removal_fractions:
                index = max(int(fraction * len(order)) - 1, 0)
                row[f"reach@{int(fraction * 100)}%"] = (
                    curve[index] if curve else 0.0
                )
            result.add(**row)
    result.note(
        "the centralized star dies with its hub under targeted attack; "
        "the distributed super-peer graph keeps short paths while "
        "degrading gradually; registry-less LAN cliques never span the WAN."
    )
    return result


def _build_graph(arch: str, lans: int, services_per_lan: int, seed: int):
    spec = ScenarioSpec(lan_names=lan_ids(lans), services_per_lan=services_per_lan,
                        federation="mesh", seed=seed)
    if arch != "distributed":
        spec = replace(spec, registries_per_lan=0, federation="none")
    system = build_scenario(spec, config=DiscoveryConfig(),
                            with_registries=arch == "distributed").system
    if arch == "centralized":
        # One registry total: place it on lan-0 and seed everyone to it.
        hub = system.add_registry("lan-0")
        for node in list(system.services) + list(system.clients):
            system.sim.schedule(0.5, lambda n=node: n.tracker.seed(hub.node_id))
    system.run(until=12.0)
    return discovery_graph(system)


def run_fault_scenario(
    *,
    lans: int = 4,
    services_per_lan: int = 2,
    seed: int = 0,
) -> dict:
    """The canonical crash + partition + loss-burst scenario on the
    distributed (super-peer) topology, measured as a survivability story.

    Snapshots the discovery graph before the faults, at the depth of the
    partition window, and after heal + recovery, then sweeps the
    bookkeeping invariants. Deterministic under a fixed seed.
    """
    from repro.experiments.e3_robustness import canonical_fault_plan

    spec = ScenarioSpec(lan_names=lan_ids(lans), services_per_lan=services_per_lan,
                        federation="mesh", seed=seed)
    built = build_scenario(spec, config=DiscoveryConfig())
    system = built.system
    system.run(until=12.0)
    before = largest_component_fraction(discovery_graph(system))

    plan = canonical_fault_plan(system)
    applied = plan.apply(system)
    system.run_for(10.0)  # inside the partition + loss window
    during = largest_component_fraction(discovery_graph(system))
    system.run_for(2 * system.config.lease_duration)  # heal + recover
    after = largest_component_fraction(discovery_graph(system))
    assert_invariants(system)

    return {
        "faults": applied.counts(),
        "traffic": system.traffic(),
        "connected_before": before,
        "connected_during": during,
        "connected_after": after,
        "recoveries": system.network.metrics.tallies("recovery"),
    }

