"""Cross-strategy oracle for the registry's query coordinator.

§4.9 makes how a query travels a deployment choice, not a semantics
choice: on a fault-free, converged federation, flooding, an expanding ring
whose last TTL reaches across the federation, replicated advertisements
and sharded reads must answer the same requests with the same hits. The
random walk is left out — it is lossy by design.
"""

from __future__ import annotations

from repro.core.config import (
    COOPERATION_REPLICATE_ADS,
    STRATEGY_EXPANDING_RING,
    DiscoveryConfig,
)
from repro.core.invariants import check_convergence, check_invariants, check_shard_placement
from repro.core.sharding import ShardingConfig
from repro.workloads.scenarios import battlefield_scenario, build_scenario

#: A chain of four LANs: three hops across.
DIAMETER = 3

MODES = {
    "flooding": DiscoveryConfig(default_ttl=DIAMETER),
    "expanding-ring": DiscoveryConfig(strategy=STRATEGY_EXPANDING_RING,
                                      default_ttl=DIAMETER),
    "replicate-ads": DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS,
                                     default_ttl=0, antientropy_interval=2.0),
    "sharded": DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
                               antientropy_interval=2.0,
                               sharding=ShardingConfig(enabled=True, replication_factor=2,
                                                       write_quorum=1)),
}


def _answers(config: DiscoveryConfig) -> list[set[tuple[str, int, float]]]:
    """Each request's hits as ``(service, degree, score)``, asked from the
    first LAN's client once the deployment has converged."""
    built = build_scenario(
        battlefield_scenario(units=DIAMETER + 1, services_per_lan=4, clients_per_lan=1,
                             seed=7),
        config=config,
    )
    system = built.system
    system.run(until=30.0)
    assert check_convergence(system) == []
    assert check_shard_placement(system) == []
    # Response control caps nothing here: an expanding ring stops early
    # once it holds ``max_results`` hits, and no request matches that many.
    requests = [built.generator.request_for(profile, generalize=level, max_results=100)
                for profile in built.profiles[::3] for level in (0, 1, 2)]
    answers = []
    for request in requests:
        call = system.discover(built.clients[0], request)
        assert call.completed and not call.degraded
        answers.append({(hit.advertisement.service_name, hit.degree, hit.score)
                        for hit in call.hits})
    assert check_invariants(system) == []
    return answers


def test_every_strategy_answers_a_converged_federation_alike():
    answers = {mode: _answers(config) for mode, config in MODES.items()}
    assert answers["expanding-ring"] == answers["flooding"]
    assert answers["replicate-ads"] == answers["flooding"]
    assert answers["sharded"] == answers["flooding"]
    # Not vacuous: the hits come from more than the client's own LAN.
    services = {name for hits in answers["flooding"] for name, _, _ in hits}
    assert len(services) > 4
    assert all(hits for hits in answers["flooding"])
