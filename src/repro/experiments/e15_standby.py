"""E15 (extension) — §4.9: dynamic registry-role negotiation.

"Dynamic assignment of registry node responsibility is a challenging
problem … a policy could for instance include something like 'try to
maintain three registries on each LAN'."

A LAN's registries are repeatedly crashed while a client keeps querying
every second. With standby registries implementing the quota policy, the
LAN promotes a replacement within a few beacon intervals and registry-mode
discovery continues; without them the clients live on the multicast
fallback until the crashed registry returns (if ever).

Reported: fraction of queries served in registry mode, fraction served at
all, and the standby's promotion/demotion counts.
"""

from __future__ import annotations

from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.experiments.common import REQUEST, ExperimentResult, radar
from repro.netsim.faults import FaultPlan
from repro.semantics.generator import battlefield_ontology


def run(
    *,
    n_queries: int = 30,
    outage_at: float = 10.0,
    restart_at: float = 40.0,
    seed: int = 0,
) -> ExperimentResult:
    """Compare a LAN with and without a standby registry across an outage."""
    result = ExperimentResult(
        experiment="E15",
        description="registry-role negotiation: standby promotion (§4.9)",
    )
    for standby in (False, True):
        result.add(**_run_one(standby, n_queries, outage_at, restart_at, seed))
    result.note(
        "the standby restores registry-mode service within a few beacon "
        "intervals of the crash and steps down once the primary returns; "
        "without it the LAN runs on multicast fallback for the whole "
        "outage."
    )
    return result


def _run_one(with_standby: bool, n_queries: int, outage_at: float,
             restart_at: float, seed: int) -> dict:
    config = DiscoveryConfig(
        beacon_interval=1.0, lease_duration=5.0, purge_interval=1.0,
        query_timeout=2.0, aggregation_timeout=0.3, fallback_timeout=0.4,
    )
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    primary = system.add_registry("lan-0")
    standby = system.add_standby_registry("lan-0", lan_target=1) \
        if with_standby else None
    system.add_service("lan-0", radar("radar"))
    client = system.add_client("lan-0")
    system.run(until=3.0)
    (FaultPlan()
     .crash(outage_at, primary.node_id)
     .restart(restart_at, primary.node_id)
     .apply(system))

    served_by_registry = 0
    served = 0
    for _ in range(n_queries):
        call = system.discover(client, REQUEST, timeout=20.0)
        if call.completed and call.hits:
            served += 1
            if call.via.startswith("registry:"):
                served_by_registry += 1
        system.run_for(1.0)

    return {
        "standby": "yes" if with_standby else "no",
        "queries": n_queries,
        "served": served,
        "registry_mode": served_by_registry,
        "registry_mode_frac": served_by_registry / n_queries,
        "promotions": standby.promotions if standby else 0,
        "demotions": standby.demotions if standby else 0,
    }


def run_warm_standby(
    *,
    outage_at: float = 10.0,
    window: float = 25.0,
    seed: int = 0,
) -> ExperimentResult:
    """Warm vs cold standby promotion: the post-promotion staleness window.

    Two federated LANs replicate advertisements; the only matching service
    lives on the *remote* LAN, so after the local primary crashes, the
    promoted standby can serve it only from replicated state. A cold
    standby (no WAN seeds — the pre-warm-sync behavior) activates with an
    empty store and stays isolated from the WAN, so the staleness window
    spans the whole outage. A warm standby anti-entropy-pulls from its
    seed at promotion and serves the remote service within a round-trip.
    """
    result = ExperimentResult(
        experiment="E15",
        description="warm vs cold standby promotion staleness (§4.9)",
    )
    for warm in (False, True):
        result.add(**_run_warm_one(warm, outage_at, window, seed))
    result.note(
        "staleness is measured from promotion to the first registry-mode "
        "hit on the remote service; the cold standby never catches up "
        "within the window, the warm one converges in about a round-trip."
    )
    return result


def _run_warm_one(warm: bool, outage_at: float, window: float, seed: int) -> dict:
    config = DiscoveryConfig(
        beacon_interval=1.0, lease_duration=8.0, purge_interval=1.0,
        query_timeout=2.0, aggregation_timeout=0.3, fallback_timeout=0.4,
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        antientropy_interval=5.0,
    )
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    remote = system.add_registry("lan-1")
    primary = system.add_registry("lan-0", seeds=(remote.node_id,))
    standby = system.add_standby_registry(
        "lan-0", lan_target=1,
        seeds=(remote.node_id,) if warm else (),
    )
    system.add_service("lan-1", radar("radar"))
    client = system.add_client("lan-0")
    system.run(until=3.0)
    FaultPlan().crash(outage_at, primary.node_id).apply(system)
    system.run(until=outage_at + 0.1)

    deadline = outage_at + window
    while system.sim.now < deadline and standby.last_promoted_at is None:
        system.run_for(0.25)
    promoted_at = standby.last_promoted_at

    # Staleness window: from promotion until the standby's store holds
    # every advertisement the surviving remote registry replicates.
    target = frozenset(ad.ad_id for ad in remote.store.all())
    synced_at: float | None = None
    while promoted_at is not None and system.sim.now < deadline:
        held = frozenset(ad.ad_id for ad in standby.store.all())
        if target and target <= held:
            synced_at = system.sim.now
            break
        system.run_for(0.25)

    staleness = window
    if promoted_at is not None and synced_at is not None:
        staleness = max(synced_at - promoted_at, 0.0)
    call = system.discover(client, REQUEST, timeout=5.0)
    return {
        "warm": "yes" if warm else "no",
        "promoted": promoted_at is not None,
        "promotion_delay": (promoted_at - outage_at) if promoted_at else None,
        "staleness": staleness,
        "standby_store": len(standby.store),
        "served_after": call.succeeded,
        "warm_syncs": system.network.metrics.tallies("recovery").get("standby-warm-sync", 0),
    }
