"""Ablation sweeps over the architecture's configurable parameters.

"Actually, these could even be made configurable on an individual
deployment basis. Other configurable parameters could be the interval
between registry beacons, the number of registry nodes to traverse for a
query, and the advertisement lease period."

Each sweep quantifies the trade the knob controls:

* **lease duration** — shorter leases drain stale advertisements faster
  but cost renewal bandwidth (staleness half-life vs renew bytes/s);
* **beacon interval** — denser beacons re-attach clients faster after a
  registry restart but cost multicast upkeep;
* **query TTL** — the "number of registry nodes to traverse": recall vs
  forwarded bytes on a chain of LANs;
* **compression ratio** — the binary-XML hook for large semantic payloads:
  publish bytes vs nothing (lossless in this model), showing where the
  paper's "not insignificant issue" goes away.
"""

from __future__ import annotations

from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.experiments.common import REQUEST, ExperimentResult, mean, radar
from repro.metrics.bandwidth import TrafficWindow
from repro.metrics.retrieval import score_queries
from repro.metrics.staleness import registry_staleness
from repro.netsim.faults import FaultPlan
from repro.netsim.messages import SizeModel
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceRequest
from repro.workloads.queries import play
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans as lan_ids



# -- lease duration -----------------------------------------------------------


def lease_duration_sweep(
    *,
    durations: tuple[float, ...] = (5.0, 20.0, 60.0),
    n_services: int = 8,
    churn_rate: float = 0.1,
    window: float = 120.0,
    seed: int = 0,
) -> ExperimentResult:
    """Staleness vs renewal bandwidth as the lease period varies."""
    result = ExperimentResult(
        experiment="A-lease",
        description="lease duration: staleness drain vs renew bandwidth",
    )
    for duration in durations:
        config = DiscoveryConfig(lease_duration=duration,
                                 purge_interval=duration / 5.0)
        spec = ScenarioSpec(lan_names=lan_ids(1), services_per_lan=n_services,
                            federation="none", seed=seed)
        built = build_scenario(spec, config=config)
        system = built.system
        system.run(until=3.0)
        traffic = TrafficWindow.open(system.network.stats, system.sim.now)
        FaultPlan.churn(
            [s.node_id for s in system.services], rate=churn_rate,
            window=window, seed=seed, mean_downtime=None, start=system.sim.now,
        ).apply(system)
        system.run_for(window)
        report = traffic.close(system.sim.now)
        renew_bytes = traffic.bytes_by_type().get("renew", 0) + \
            traffic.bytes_by_type().get("renew-ack", 0)
        result.add(
            lease_s=duration,
            services_dead=sum(1 for s in system.services if not s.alive),
            staleness_at_end=registry_staleness(system),
            renew_bytes_per_s=renew_bytes / report["duration"],
        )
    result.note(
        "staleness at any instant is bounded by (churn rate x lease); "
        "renewal traffic scales as 1/lease — the deployment-level trade."
    )
    return result


# -- beacon interval ------------------------------------------------------------


def beacon_interval_sweep(
    *,
    intervals: tuple[float, ...] = (1.0, 5.0, 15.0),
    seed: int = 0,
) -> ExperimentResult:
    """Client re-attachment latency after registry restart vs upkeep bytes."""
    result = ExperimentResult(
        experiment="A-beacon",
        description="beacon interval: recovery latency vs multicast upkeep",
    )
    for interval in intervals:
        config = DiscoveryConfig(
            beacon_interval=interval, lease_duration=10.0, purge_interval=2.0,
            query_timeout=2.0,
        )
        system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                                 config=config)
        system.add_lan("lan-0")
        registry = system.add_registry("lan-0")
        system.add_service("lan-0", radar("radar"))
        client = system.add_client("lan-0")
        system.run(until=5.0)
        upkeep = TrafficWindow.open(system.network.stats, system.sim.now)
        system.run_for(30.0)
        upkeep_report = upkeep.close(system.sim.now)

        registry.crash()
        system.discover(client, REQUEST, timeout=30.0)  # drops to fallback
        crash_detected_at = system.sim.now
        registry.restart()
        restarted_at = system.sim.now
        # Wait until the client re-attaches (beacon-driven).
        while client.tracker.current != registry.node_id and \
                system.sim.now < restarted_at + 10 * interval:
            if not system.sim.step():
                break
        result.add(
            beacon_s=interval,
            upkeep_bytes_per_s=upkeep_report["bytes_per_second"],
            reattach_latency=system.sim.now - restarted_at,
            fallback_used=crash_detected_at > 0,
        )
    result.note(
        "re-attachment waits for the next beacon (~interval/1); upkeep "
        "multicast bytes scale with 1/interval."
    )
    return result


# -- query TTL ---------------------------------------------------------------------


def ttl_sweep(
    *,
    lans: int = 5,
    ttls: tuple[int, ...] = (0, 1, 2, 4),
    n_queries: int = 8,
    seed: int = 0,
) -> ExperimentResult:
    """Recall vs forwarded bytes as the traversal bound varies (chain)."""
    result = ExperimentResult(
        experiment="A-ttl",
        description="query TTL: reach vs forwarded bytes on a chain",
    )
    for ttl in ttls:
        config = DiscoveryConfig(default_ttl=ttl, aggregation_timeout=0.3,
                                 query_timeout=max(2.0, 0.4 * (ttl + 2)))
        spec = ScenarioSpec(lan_names=lan_ids(lans), services_per_lan=2,
                            federation="chain", seed=seed)
        built = build_scenario(spec, config=config)
        built.system.run(until=10.0)
        played = play(built, n_queries, drain=15.0, clients=[built.clients[0]])
        result.add(
            ttl=ttl,
            recall=score_queries(played.issued).recall,
            forward_bytes=played.window.bytes_by_type().get("query-forward", 0),
            mean_latency=mean(q.call.latency for q in played.completed),
        )
    result.note(
        "recall saturates once the TTL covers the chain from the querying "
        "client; every extra hop past that is pure forwarded-bytes cost."
    )
    return result


# -- compression ---------------------------------------------------------------------


def compression_sweep(
    *,
    ratios: tuple[float, ...] = (1.0, 0.5, 0.25, 0.1),
    n_services: int = 6,
    seed: int = 0,
) -> ExperimentResult:
    """Publish/response bytes as semantic payloads are compressed."""
    result = ExperimentResult(
        experiment="A-zip",
        description="compression (binary-XML hook): wire bytes vs ratio",
    )
    for ratio in ratios:
        config = DiscoveryConfig(lease_duration=30.0)
        system = DiscoverySystem(
            seed=seed, ontology=battlefield_ontology(), config=config,
            size_model=SizeModel(compression_ratio=ratio),
        )
        system.add_lan("lan-0")
        system.add_registry("lan-0")
        for i in range(n_services):
            system.add_service("lan-0", radar(f"radar-{i}"),
                               model_ids=("semantic",))
        client = system.add_client("lan-0", model_ids=("semantic",))
        system.run(until=3.0)
        call = system.discover(client, REQUEST)
        stats = system.network.stats
        publishes = stats.by_type_count.get("publish", 1)
        result.add(
            ratio=ratio,
            publish_msg_bytes=stats.by_type_bytes.get("publish", 0) / publishes,
            response_bytes=call.response_bytes,
            hits=len(call.hits),
        )
    result.note(
        "payload bytes scale linearly with the ratio; the constant "
        "envelope dominates below ~0.25 — the point of diminishing "
        "returns for the paper's compression hook."
    )
    return result


# -- narrow-band links ------------------------------------------------------------


def narrowband_sweep(
    *,
    bandwidths: tuple[float | None, ...] = (None, 256_000.0, 64_000.0),
    seed: int = 0,
) -> ExperimentResult:
    """Query latency per description model on capacity-limited LANs.

    "Especially in wireless environments, it is important to use
    bandwidth efficiently" — on a shared narrow-band medium the large
    semantic payloads turn directly into transmission latency, and the
    binary-XML/compression hook earns its keep.
    """
    result = ExperimentResult(
        experiment="A-band",
        description="narrow-band LANs: query latency per description model",
    )
    cases = [("uri", 1.0), ("semantic", 1.0), ("semantic", 0.25)]
    for bandwidth in bandwidths:
        for model_id, ratio in cases:
            system = DiscoverySystem(
                seed=seed, ontology=battlefield_ontology(),
                config=DiscoveryConfig(),
                size_model=SizeModel(compression_ratio=ratio),
            )
            system.network.add_lan("radio", bandwidth_bps=bandwidth)
            system.add_registry("radio", model_ids=(model_id,))
            system.add_service("radio", radar("radar"),
                               model_ids=(model_id,))
            client = system.add_client("radio", model_ids=(model_id,))
            system.run(until=3.0)
            call = system.discover(
                client, ServiceRequest.build("ncw:RadarService"),
                model_id=model_id, timeout=60.0,
            )
            result.add(
                bandwidth_kbps=(bandwidth / 1000.0) if bandwidth else "inf",
                model=f"{model_id}" + ("+zip" if ratio < 1.0 else ""),
                query_latency_ms=call.latency * 1000.0,
                hits=len(call.hits),
            )
    result.note(
        "on a 64 kbps medium the semantic payloads dominate latency; "
        "4:1 compression recovers most of the gap to URI discovery."
    )
    return result


def run(*, seed: int = 0) -> ExperimentResult:
    """All five sweeps concatenated into one table (for the bench)."""
    combined = ExperimentResult(
        experiment="A-all",
        description="design-knob ablations (lease/beacon/ttl/zip/bandwidth)",
    )
    for sweep in (lease_duration_sweep, beacon_interval_sweep, ttl_sweep,
                  compression_sweep, narrowband_sweep):
        part = sweep(seed=seed)
        for row in part.rows:
            combined.add(sweep=part.experiment, **row)
        combined.notes.extend(f"{part.experiment}: {n}" for n in part.notes)
    return combined
