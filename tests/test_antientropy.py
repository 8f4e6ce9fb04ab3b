"""Self-healing federation tests: anti-entropy reconciliation, circuit
breakers, warm standby promotion, and the satellite regressions."""

from __future__ import annotations

import pytest

from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.federation import BREAKER_FAILURE_THRESHOLD
from repro.core.invariants import assert_invariants, check_convergence
from repro.core.system import DiscoverySystem
from repro.errors import ReproError
from repro.netsim.faults import FaultPlan
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest

REQUEST = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


def _radar(name):
    return ServiceProfile.build(name, "ncw:RadarService",
                                outputs=["ncw:AirTrack"])


def _cluster(seed=7, *, lans=3, antientropy_interval=2.0, **overrides):
    """A replicate-ads cluster: one registry per LAN, ring seeds."""
    config = DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        antientropy_interval=antientropy_interval,
        lease_duration=30.0, purge_interval=2.0,
        **overrides,
    )
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=config)
    registries = []
    for i in range(lans):
        system.add_lan(f"lan-{i}")
    for i in range(lans):
        seeds = (f"registry-{(i + 1) % lans:02d}",)
        registries.append(
            system.add_registry(f"lan-{i}", node_id=f"registry-{i:02d}",
                                seeds=seeds)
        )
    return system, registries


# -- circuit breaker unit behaviour ------------------------------------------


def _pair():
    """Two registries on two LANs, no gossip."""
    config = DiscoveryConfig(ping_interval=5.0, signalling_interval=None)
    system = DiscoverySystem(seed=0, config=config)
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    return system, system.add_registry("lan-0"), system.add_registry("lan-1")


def test_breaker_opens_after_threshold():
    system, left, right = _pair()
    federation, peer = left.federation, right.node_id
    for strike in range(1, BREAKER_FAILURE_THRESHOLD + 1):
        assert federation.breaker_allows(peer)
        federation.record_neighbor_failure(peer)
        assert federation.failures[peer] == strike
    # The last strike opened it, once.
    assert not federation.breaker_allows(peer)
    assert federation.breaker_states() == {peer: "open"}
    federation.record_neighbor_failure(peer)
    assert system.network.metrics.tallies("recovery").get("breaker-open") == 1


def test_an_open_breaker_admits_nothing_until_a_success():
    """No time-out re-admits a suspected peer: while it stays silent to
    every ping round its breaker stays open, and one success closes it."""
    system, left, right = _pair()
    right.crash()
    for _ in range(BREAKER_FAILURE_THRESHOLD):
        left.federation.record_neighbor_failure(right.node_id)
    for until in (1.0, 100.0, 1_000.0):
        system.run(until=until)
        assert not left.federation.breaker_allows(right.node_id)
        assert left.federation.breaker_states() == {right.node_id: "open"}
    left.federation.record_neighbor_success(right.node_id)
    assert left.federation.breaker_allows(right.node_id)
    assert left.federation.failures == {right.node_id: 0}
    assert left.federation.breaker_states() == {right.node_id: "closed"}


def test_breaker_success_resets_failure_count():
    system, left, right = _pair()
    federation, peer = left.federation, right.node_id
    federation.record_neighbor_failure(peer)
    federation.record_neighbor_failure(peer)
    federation.record_neighbor_success(peer)  # still closed: no recovery
    assert federation.failures[peer] == 0
    federation.record_neighbor_failure(peer)
    federation.record_neighbor_failure(peer)
    # Two strikes since the success, not four: still closed.
    assert federation.breaker_allows(peer)
    assert "breaker-close" not in system.network.metrics.tallies("recovery")


# -- config validation --------------------------------------------------------


def test_config_rejects_bad_selfhealing_knobs():
    with pytest.raises(ReproError):
        DiscoveryConfig(antientropy_interval=0.0)


def test_antientropy_gated_to_replication():
    """Every replicating registry runs the rounds; there is no way to
    switch them off."""
    assert not DiscoveryConfig().antientropy_enabled()
    assert DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS
    ).antientropy_enabled()
    with pytest.raises(ReproError, match="antientropy_interval must be positive, got None"):
        DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS, antientropy_interval=None)


# -- anti-entropy reconciliation ----------------------------------------------


def test_partition_heal_converges_within_k_rounds():
    """Property: after a partition heals, every replicate-ads member holds
    the same live (ad_id, version) set — and the same per-ad epochs —
    within K anti-entropy rounds."""
    interval = 2.0
    system, registries = _cluster(antientropy_interval=interval)
    for i in range(3):
        system.add_service(f"lan-{i}", _radar(f"radar-{i}"))
    system.run(until=10.0)

    t0 = system.sim.now
    plan = (
        FaultPlan()
        .partition(t0 + 1.0, [["lan-0"], ["lan-1", "lan-2"]])
        .heal(t0 + 20.0)
    )
    plan.apply(system)
    system.run_for(5.0)
    # Diverge for real: one new service on each side of the split.
    system.add_service("lan-0", _radar("split-a"))
    system.add_service("lan-1", _radar("split-b"))
    system.run_for(16.0)  # past the heal

    k_rounds = 6
    rounds = 0
    while rounds < k_rounds and check_convergence(system):
        system.run_for(interval)
        rounds += 1
    assert check_convergence(system) == []
    views = [
        frozenset((ad.ad_id, ad.version) for ad in r.store.all())
        for r in registries
    ]
    assert len(set(views)) == 1
    epoch_views = [
        {ad.ad_id: r.antientropy.epochs.get(ad.ad_id, 0)
         for ad in r.store.all()}
        for r in registries
    ]
    assert all(view == epoch_views[0] for view in epoch_views)
    assert_invariants(system)


def test_removed_ad_is_never_resurrected():
    """A removal issued while a stale replica sits across a partition must
    stick: reconciliation spreads the tombstone, never the corpse."""
    system, (r0, r1, r2) = _cluster(seed=11)
    service = system.add_service("lan-0", _radar("radar"))
    system.run(until=6.0)
    ad_ids = {ad.ad_id for ad in r0.store.by_service(service.node_id)}
    assert ad_ids and all(ad_id in r1.store for ad_id in ad_ids)

    t0 = system.sim.now
    FaultPlan().partition(t0 + 0.5, [["lan-0"], ["lan-1", "lan-2"]]).apply(system)
    system.run_for(1.0)
    service.deregister()  # REMOVE reaches the home registry only
    system.run_for(0.1)
    service.crash()  # gone for good: no republishes after the removal
    system.run_for(0.9)
    assert all(ad_id not in r0.store for ad_id in ad_ids)
    assert all(ad_id in r1.store for ad_id in ad_ids)  # stale replica

    FaultPlan().heal(system.sim.now + 0.5).apply(system)
    system.run_for(10.0)  # several anti-entropy rounds
    for registry in (r0, r1, r2):
        assert all(ad_id not in registry.store for ad_id in ad_ids)
    system.run_for(10.0)  # and the removal stays removed
    for registry in (r0, r1, r2):
        assert all(ad_id not in registry.store for ad_id in ad_ids)
    assert r1.antientropy.removals_applied >= 1
    assert_invariants(system)


def test_join_sync_uses_digest_not_full_push():
    """A (re)joining member bootstraps via digest + delta pull, and the
    synced advertisements are not re-flooded."""
    system, (r0, r1, r2) = _cluster(seed=13)
    system.add_service("lan-1", _radar("radar"))
    system.run(until=8.0)
    assert any(ad.service_name == "radar" for ad in r0.store.all())

    r0.crash()
    system.run_for(2.0)
    r0.restart()
    system.run_for(8.0)  # rejoin via seeds -> digest sync
    assert any(ad.service_name == "radar" for ad in r0.store.all())
    assert r0.antientropy.ads_applied >= 1
    assert check_convergence(system) == []


def test_sync_ships_remaining_lease_not_full_lease():
    """Anti-entropy must not extend a replica's life beyond the home
    lease: a synced ad expires on the recipient when the origin lease
    would have."""
    system, (r0, r1, r2) = _cluster(seed=17, antientropy_interval=1.0)
    system.add_service("lan-0", _radar("radar"))
    system.run(until=6.0)
    ad = next(a for a in r1.store.all() if a.service_name == "radar")
    lease = r1.leases.lease_for_ad(ad.ad_id)
    assert lease is not None
    # The replica's lease must not outlive the home registry's by more
    # than one sync round's worth of skew.
    home = r0.leases.lease_for_ad(ad.ad_id)
    assert home is not None
    assert lease.expires_at <= home.expires_at + 1.5


# -- circuit breaker in the query path ----------------------------------------


def test_breaker_avoids_aggregation_timeout_for_crashed_neighbor():
    """Acceptance: with one neighbor crashed (and the ping detector held
    off by a long ping interval), queries pay the aggregation timeout only
    until the breaker opens, then complete at healthy latency."""
    from repro.experiments.e3_robustness import run_degraded_latency

    row = run_degraded_latency(n_queries=4, seed=3)
    assert row["degraded_mean"] >= row["aggregation_timeout"]
    assert row["after_open_mean"] < row["aggregation_timeout"]
    assert row["recoveries"].get("breaker-open", 0) >= 1
    assert row["recoveries"].get("breaker-skip", 0) >= 1
    assert "open" in row["breaker_states"].values()


def test_late_response_counted_after_aggregation_timeout():
    """A response arriving after its aggregation completed is counted as
    late instead of being silently dropped."""
    config = DiscoveryConfig(
        aggregation_timeout=0.04, default_ttl=1,  # timeout < one WAN round trip
        ping_interval=120.0, signalling_interval=None,
    )
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    r0 = system.add_registry("lan-0", node_id="registry-00",
                             seeds=("registry-01",))
    system.add_registry("lan-1", node_id="registry-01")
    system.add_service("lan-1", _radar("radar"))
    client = system.add_client("lan-0")
    system.run(until=5.0)

    system.discover(client, REQUEST, timeout=5.0)
    system.run_for(1.0)  # let the straggler response arrive
    assert r0.queries.late_responses >= 1
    assert system.network.metrics.tallies("recovery").get("late-response", 0) >= 1


def test_leave_clears_failure_detector_and_breakers():
    """Satellite regression: a graceful leave drops missed-pong counters
    and breakers with the links, so a later rejoin starts clean."""
    system, (r0, r1, r2) = _cluster(seed=19)
    system.run(until=8.0)
    peer = r1.node_id
    assert peer in r0.federation.neighbors
    # Simulate accumulated suspicion just before the leave.
    r0.federation._missed_pongs[peer] = 2
    r0.federation.record_neighbor_failure(peer)
    r0.federation.leave()
    assert r0.federation._missed_pongs == {}
    assert r0.federation.failures == {}

    r0.federation.join(peer)
    system.run_for(6.0)  # a full ping round after the rejoin
    assert peer in r0.federation.neighbors
    assert r0.federation._missed_pongs.get(peer, 0) <= 1


# -- warm standby promotion ----------------------------------------------------


def test_warm_standby_shrinks_staleness_window():
    """Acceptance: warm promotion bootstraps the store via anti-entropy,
    shrinking the post-promotion staleness window vs a cold standby."""
    from repro.experiments.e15_standby import run_warm_standby

    result = run_warm_standby(seed=2)
    rows = {row["warm"]: row for row in result.rows}
    assert rows["yes"]["promoted"] and rows["no"]["promoted"]
    assert rows["yes"]["staleness"] < rows["no"]["staleness"]
    assert rows["yes"]["standby_store"] > 0
    assert rows["no"]["standby_store"] == 0
    assert rows["yes"]["warm_syncs"] >= 1


# -- convergence scenario (E3) -------------------------------------------------


def test_convergence_scenario_bounded_rounds():
    """Acceptance: the canonical partition/heal scenario reconverges
    within the bounded number of anti-entropy rounds."""
    from repro.experiments.e3_robustness import run_convergence_scenario

    row = run_convergence_scenario(max_rounds=6, seed=1)
    assert row["diverged_after_heal"]
    assert row["rounds_to_converge"] <= row["max_rounds"]
    assert row["antientropy"]["ads_applied"] >= 1


# -- bounded tombstone growth (churn spam) -------------------------------------


class _TombstoneClock:
    """Just enough registry for AntiEntropy prune unit tests: a settable
    clock and an empty store."""

    class _Sim:
        now = 0.0

    class _Store:
        @staticmethod
        def all():
            return ()

    def __init__(self):
        self.sim = self._Sim()
        self.network = object()
        self.store = self._Store()


def _pruner(monkeypatch, cap, *, lease_duration=4.0, purge_interval=1.0):
    from repro.core import antientropy
    from repro.core.antientropy import AntiEntropy

    if cap is not None:
        monkeypatch.setattr(antientropy, "TOMBSTONE_CAP", cap)
    config = DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        antientropy_interval=1.0, lease_duration=lease_duration,
        purge_interval=purge_interval,
    )
    registry = _TombstoneClock()
    return AntiEntropy(registry, config), registry.sim


def test_tombstone_cap_never_evicts_within_prune_horizon(monkeypatch):
    """Safety first: a burst of fresh tombstones may exceed the cap, but
    none younger than ``lease_duration + 2 * purge_interval`` is evicted
    — so nothing can be resurrected inside the prune horizon."""
    ae, sim = _pruner(monkeypatch, cap=5)  # floor 6s, age horizon 8s
    for i in range(20):
        ae.log_remove(f"ad-{i:03d}", version=1)
    ae.digest()  # digest prunes; all 20 are younger than the floor
    assert len(ae.tombstones) == 20
    assert ae.tombstones_pruned == 0
    assert all(ae.blocked(f"ad-{i:03d}", 1) for i in range(20))


def test_tombstone_cap_evicts_oldest_past_the_safety_floor(monkeypatch):
    ae, sim = _pruner(monkeypatch, cap=5)
    for i in range(15):
        sim.now = 0.05 * i  # staggered removals, all within 0.7s
        ae.log_remove(f"ad-{i:03d}", version=1)
    sim.now = 7.0  # past the 6s floor, inside the 8s age horizon
    ae.digest()
    assert len(ae.tombstones) == 5
    assert ae.tombstones_pruned == 10
    # Oldest-first: the five *newest* tombstones survive.
    assert sorted(ae.tombstones) == [f"ad-{i:03d}" for i in range(10, 15)]


def test_tombstone_age_horizon_clears_everything(monkeypatch):
    ae, sim = _pruner(monkeypatch, cap=None)  # the size cap never engages
    for i in range(30):
        ae.log_remove(f"ad-{i:03d}", version=1)
    sim.now = 9.0  # past 2 * lease_duration = 8s
    ae.digest()
    assert ae.tombstones == {}
    assert ae.tombstones_pruned == 30


def test_tombstone_growth_bounded_under_remove_churn(monkeypatch):
    """Churn spam: waves of publish + explicit deregister must not grow
    the tombstone map without bound, and nothing pruned may resurrect."""
    from repro.core import antientropy

    monkeypatch.setattr(antientropy, "TOMBSTONE_CAP", 4)
    config = DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        antientropy_interval=1.0, lease_duration=3.0, purge_interval=1.0,
    )
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=config)
    for i in range(2):
        system.add_lan(f"lan-{i}")
    registries = [
        system.add_registry(f"lan-{i}", node_id=f"registry-{i:02d}",
                            seeds=(f"registry-{(i + 1) % 2:02d}",))
        for i in range(2)
    ]
    removed: set[str] = set()
    for wave in range(4):
        services = [
            system.add_service(f"lan-{wave % 2}",
                               _radar(f"burst-{wave}-{j}"))
            for j in range(4)
        ]
        system.run_for(2.0)
        for service in services:
            removed.update(
                ad.ad_id
                for r in registries
                for ad in r.store.by_service(service.node_id)
            )
            service.deregister()
            service.crash()
        system.run_for(1.0)
    assert len(removed) >= 40  # far beyond the cap of 4
    # Quiesce past the safety floor (3 + 2*1 = 5s) plus a digest round.
    system.run_for(8.0)
    for registry in registries:
        assert len(registry.antientropy.tombstones) <= 4
        assert registry.antientropy.tombstones_pruned > 0
        assert all(ad_id not in registry.store for ad_id in removed)
    assert check_convergence(system) == []
    assert_invariants(system)


# -- tombstones are pruned wherever they are kept ------------------------------


def _publish_then_remove_everything(config, *, services=30):
    """``services`` publish at one registry, deregister and crash; returns
    the advertisements the registry held before the removals."""
    system = DiscoverySystem(seed=23, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    nodes = [system.add_service("lan-0", _radar(f"radar-{i}"))
             for i in range(services)]
    system.run(until=3.0)
    held = list(registry.store.all())
    assert len(held) >= services
    for node in nodes:
        node.deregister()
    system.run_for(0.5)
    for node in nodes:
        node.crash()  # gone for good: nothing republishes
    assert len(registry.store) == 0
    return system, registry, held


def test_forwarding_registry_keeps_no_tombstones():
    """Nothing reads a tombstone where nothing is replicated: a default
    (forward-queries) registry keeps none — in memory, in its snapshot of
    the empty store, or after replaying the WAL's ``remove`` records."""
    from repro.core.durability import DurabilityConfig, SNAPSHOT_FILE, scan_records

    config = DiscoveryConfig(lease_duration=10.0, purge_interval=1.0,
                             durability=DurabilityConfig(enabled=True))
    system, registry, _held = _publish_then_remove_everything(config)
    system.run_for(10 * config.lease_duration)
    assert len(registry.antientropy.tombstones) == 0

    def snapshot_tombstones():
        disk = system.network.disk(registry.node_id)
        (record,), _corrupt, _torn = scan_records(disk.read(SNAPSHOT_FILE))
        assert record[1] == ()  # the store is empty
        return record[2]

    registry.durability.snapshot()
    assert snapshot_tombstones() == {}
    registry.crash()
    registry.restart()  # replays, then snapshots again
    assert len(registry.antientropy.tombstones) == 0
    assert snapshot_tombstones() == {}


def test_flood_only_registry_prunes_tombstones_on_the_purge_sweep():
    """A flooding registry whose digest rounds come later than the test
    runs: the tombstones are kept while they guard something — a replayed
    stale AD_FORWARD is still blocked — and go with the purge sweep past
    ``2 * lease_duration``, not only with a round."""
    from repro.core import protocol
    from repro.netsim.node import Node

    config = DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        antientropy_interval=1000.0, lease_duration=10.0, purge_interval=1.0,
    )
    system, registry, held = _publish_then_remove_everything(config)
    antientropy = registry.antientropy
    assert sorted(antientropy.tombstones) == sorted(ad.ad_id for ad in held)

    peer = system.network.add_node(Node("stale-peer"), "lan-0")
    peer.send(registry.node_id, protocol.AD_FORWARD, protocol.AdForwardPayload(
        advertisement=held[0], lease_duration=10.0,
        epoch=registry.writes.lease_epoch() + 1,
    ))
    system.run_for(0.5)
    assert len(registry.store) == 0
    assert antientropy.resurrections_blocked == 1

    system.run_for(2 * config.lease_duration + 2 * config.purge_interval)
    assert len(antientropy.tombstones) == 0
    assert antientropy.tombstones_pruned == len(held)
