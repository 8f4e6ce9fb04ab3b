"""E7 — Figures 2 & 4/§4.7/§4.9: WAN federation, cooperation, gateways.

Three sub-studies on the multi-LAN scenario:

* **Seeding shape** — "manual configuration, or seeding, is necessary at
  some point in time, connecting different registries from different LANs
  into a distributed registry network". We sweep ``none → chain → ring →
  mesh`` and measure cross-LAN recall (none ⇒ LAN-only discovery) and the
  WAN bytes each shape costs.
* **Cooperation strategy** — forward-queries (thick autonomous registries
  answering from their own content) vs replicate-advertisements (cluster
  style): query bytes shift to publish/renew bytes, and local answering
  removes WAN query latency — the push-vs-pull design choice §4.9 leaves
  open.
* **Gateway election** — with several registries per LAN, "only one node
  (or a predefined number of nodes) acts as the gateway to the WAN-level
  registry network": we toggle the election and count redundant WAN query
  traffic.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import (
    COOPERATION_FORWARD_QUERIES,
    COOPERATION_REPLICATE_ADS,
    DiscoveryConfig,
)
from repro.experiments.common import ExperimentResult, mean
from repro.metrics.retrieval import score_queries
from repro.workloads.queries import play
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans as lan_ids


def run(
    *,
    lans: int = 4,
    services_per_lan: int = 3,
    n_queries: int = 10,
    seed: int = 0,
) -> ExperimentResult:
    """Run all three federation sub-studies."""
    result = ExperimentResult(
        experiment="E7",
        description="WAN federation: seeding, cooperation, gateways (Figs. 2/4)",
    )
    spec = ScenarioSpec(lan_names=lan_ids(lans), services_per_lan=services_per_lan, seed=seed)
    for shape in ("none", "chain", "ring", "mesh"):
        _add_row(result, "seeding", shape, replace(spec, federation=shape), n_queries)
    for cooperation in (COOPERATION_FORWARD_QUERIES, COOPERATION_REPLICATE_ADS):
        config = DiscoveryConfig(
            cooperation=cooperation,
            default_ttl=0 if cooperation == COOPERATION_REPLICATE_ADS else 4,
        )
        _add_row(result, "cooperation", cooperation, spec, n_queries, config=config)
    for election in (True, False):
        # Two registries per LAN, every one with WAN links (a full mesh
        # over all of them): this is the configuration where redundant WAN
        # forwarding arises and gateway election pays off.
        _add_row(result, "gateway", "elected" if election else "all-forward",
                 replace(spec, registries_per_lan=2, federation="none"), n_queries,
                 config=DiscoveryConfig(gateway_election=election), mesh=True)
    result.note(
        "shape=none keeps discovery LAN-local (recall ~ 1/LANs); any "
        "connected seeding restores full recall; replication trades query "
        "bytes for publish/renew bytes; gateway election removes "
        "redundant WAN forwarding when LANs host several registries."
    )
    return result


def _add_row(result: ExperimentResult, study: str, variant: str, spec: ScenarioSpec,
             n_queries: int, *, config: DiscoveryConfig | None = None,
             mesh: bool = False) -> None:
    built = build_scenario(spec, config=config)
    if mesh:
        built.system.federate_mesh()
    built.system.run(until=12.0)
    played = play(built, n_queries, drain=15.0)
    completed = played.completed
    latency = played.latency
    result.metrics[f"query.e2e_latency[{study}/{variant}]"] = latency
    result.add(
        study=study,
        variant=variant,
        recall=score_queries(played.issued).recall,
        completed=len(completed),
        query_bytes_per_q=played.window.query_bytes() / max(len(completed), 1),
        maintenance_bytes=played.window.maintenance_bytes(),
        wan_bytes=played.traffic["bytes_wan"],
        mean_latency=mean(q.call.latency for q in completed),
        p50_ms=latency["p50"] * 1000.0,
        p95_ms=latency["p95"] * 1000.0,
        p99_ms=latency["p99"] * 1000.0,
    )
