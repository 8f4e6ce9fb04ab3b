"""Membership churn in the sharded federation.

Graceful leaves shrink the ring and drain in-flight aggregation state;
crashes do *not* shrink the ring (replica selection masks them and
anti-entropy repairs them, so flapping cannot thrash keys); and a promoted warm standby
inherits the dead registry's ring identity so promotion moves no keys
between the surviving members.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import protocol
from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.forwarding import PendingAggregation
from repro.core.invariants import check_convergence, check_shard_placement
from repro.core.sharding import ConsistentHashRing, ShardingConfig
from repro.core.system import DiscoverySystem
from repro.netsim.messages import Envelope
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest

REQUEST = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


def _radar(name):
    return ServiceProfile.build(name, "ncw:RadarService",
                                outputs=["ncw:AirTrack"])


def _cluster(seed=11, *, n=4, r=3, w=2, services=4, standby_on=None):
    config = DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        antientropy_interval=2.0, lease_duration=30.0, purge_interval=2.0,
        query_timeout=2.0, aggregation_timeout=0.3,
        sharding=ShardingConfig(
            enabled=True, replication_factor=r, write_quorum=w),
    )
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=config)
    registries = []
    for i in range(n):
        system.add_lan(f"lan-{i}")
    for i in range(n):
        registries.append(
            system.add_registry(f"lan-{i}", node_id=f"registry-{i:02d}",
                                seeds=(f"registry-{(i + 1) % n:02d}",))
        )
    standby = None
    if standby_on is not None:
        standby = system.add_standby_registry(
            standby_on, node_id="standby-00", lan_target=1,
            seeds=tuple(r.node_id for r in registries),
        )
    for i in range(services):
        system.add_service(f"lan-{i % n}", _radar(f"radar-{i}"))
    return system, registries, standby


# -- graceful departure -----------------------------------------------------


def test_graceful_leave_shrinks_ring_and_rebalances():
    system, registries, _ = _cluster()
    client = system.add_client("lan-0")
    system.run(until=10.0)
    leaver = registries[3]
    leaver_ads = {ad.ad_id for ad in leaver.store.all()}
    assert leaver_ads
    leaver.federation.leave()
    leaver.crash()  # departed for real, not merely quiet
    system.run_for(15.0)
    survivors = registries[:3]
    for registry in survivors:
        assert leaver.node_id not in registry.shard.ring
    assert any(r.shard.rebalances > 0 for r in survivors)
    # With three survivors and R=3 every ad is fully replicated again,
    # including the copies only the leaver used to own.
    assert check_shard_placement(system) == []
    assert check_convergence(system) == []
    live = {ad.ad_id for r in survivors for ad in r.store.all()}
    assert live  # the leaver's departure did not lose the shard
    call = system.discover(client, REQUEST, timeout=20.0)
    assert call.completed and len(call.hits) == 4


def test_leave_drains_pending_aggregations():
    """A member's leave (``peer_departed``) and our own (``departing``)
    release waiting fan-outs at once instead of riding out the
    aggregation timeout."""
    system, registries, _ = _cluster()
    system.run(until=5.0)
    coordinator = registries[0]

    completed = []
    pending = PendingAggregation(
        coordinator, query_id="q-drain", local_hits=[],
        targets=("registry-03",), timeout=30.0, max_results=None,
        on_complete=lambda hits, responders: completed.append(responders),
    )
    coordinator.queries._pending["q-drain"] = pending
    coordinator.federation.handle_federation_leave(Envelope(
        msg_type=protocol.FEDERATION_LEAVE, src="registry-03", dst=coordinator.node_id,
        payload=protocol.LeavePayload(member="registry-03"),
    ))
    assert pending.done and completed == [1]
    # The departed member's ring slot and router state went with it.
    assert "registry-03" not in coordinator.shard.ring
    assert not coordinator.router.cooldowns.in_cooldown("registry-03")

    flushed = []
    ours = PendingAggregation(
        coordinator, query_id="q-flush", local_hits=[],
        targets=("registry-01", "registry-02"), timeout=30.0,
        max_results=None,
        on_complete=lambda hits, responders: flushed.append(responders),
    )
    coordinator.queries._pending["q-flush"] = ours
    coordinator.federation.leave()  # we are the one leaving
    assert ours.done and flushed == [1]


def _containers(owner) -> dict[str, int]:
    """The size of every container ``owner`` holds, by attribute name."""
    return {name: len(value) for name, value in vars(owner).items()
            if isinstance(value, (dict, list, set))}


def test_a_read_with_every_target_breaker_open_leaves_nothing_behind():
    """A sharded read whose every cover target is breaker-open is answered
    at once from the local store. It used to leave its read-repair state
    behind in the shard manager, one entry per query, for good."""
    system, registries, _ = _cluster(r=2, w=1, services=0)
    client = system.add_client("lan-0")
    system.run(until=10.0)
    coordinator = registries[0]
    for registry in registries[1:]:
        registry.crash()
    while set(coordinator.federation.breaker_states().values()) != {"open"}:
        system.discover(client, REQUEST)
    shard = _containers(coordinator.shard)
    for _ in range(20):
        assert system.discover(client, REQUEST).completed
    assert set(coordinator.federation.breaker_states().values()) == {"open"}
    assert _containers(coordinator.shard) == shard
    # Besides the bounded loop-avoidance table, the coordinator keeps only
    # the queries still in flight: none.
    assert _containers(coordinator.queries) == {"_pending": 0}


def test_a_recovered_replica_is_read_again():
    """A replica that is not a federation neighbor of the coordinator
    crashes until the coordinator's breaker for it opens, then comes back.
    Classifying replica health used to take the half-open breaker's one
    probe, so the fan-out then refused the replica for good: it was never
    read again, and once its partner crashed its advertisements were
    missing from every answer."""
    system, registries, _ = _cluster(n=6, r=2, w=1, services=12)
    client = system.add_client("lan-0")
    system.run(until=10.0)
    coordinator, partner, recovered = registries[0], registries[1], registries[2]
    assert recovered.node_id not in coordinator.federation.neighbors
    recovered.crash()
    while coordinator.federation.breaker_states().get(recovered.node_id) != "open":
        system.discover(client, REQUEST)
    recovered.restart()
    system.run_for(20.0)
    asked = []
    send = coordinator.send

    def logged_send(dst, msg_type, payload=None, **kwargs):
        if msg_type == protocol.QUERY_FORWARD:
            asked.append(dst)
        return send(dst, msg_type, payload, **kwargs)

    coordinator.send = logged_send
    for _ in range(10):
        system.discover(client, REQUEST)
    assert recovered.node_id in asked
    assert coordinator.federation.breaker_states()[recovered.node_id] == "closed"
    partner.crash()
    for _ in range(5):
        assert len(system.discover(client, REQUEST).hits) == 12


def test_crash_does_not_shrink_ring():
    system, registries, _ = _cluster()
    system.run(until=10.0)
    victim = registries[2]
    victim.crash()
    system.run_for(15.0)
    for registry in registries:
        if registry is not victim:
            assert victim.node_id in registry.shard.ring
    victim.restart()
    system.run_for(15.0)
    assert check_shard_placement(system) == []
    assert check_convergence(system) == []


# -- standby promotion ring inheritance -------------------------------------


def test_standby_promotion_inherits_ring_identity():
    system, registries, standby = _cluster(standby_on="lan-0")
    client = system.add_client("lan-1")
    system.run(until=10.0)
    registries[0].crash()
    system.run_for(20.0)
    assert standby.active and standby.promotions == 1
    # The heir occupies the dead registry's exact virtual-node positions.
    assert standby.ring_identity == registries[0].node_id
    for peer in registries[1:]:
        assert peer.shard.ring.ring_id_of(standby.node_id) \
            == registries[0].node_id
    system.run_for(10.0)
    assert check_shard_placement(system) == []
    call = system.discover(client, REQUEST, timeout=20.0)
    assert call.completed and len(call.hits) == 4


def test_standby_inheritance_limits_rebalance_movement():
    """Regression for churn at promotion: the promoted standby
    takes the dead registry's ring positions, so every survivor places
    each advertisement where the inherited ring does, and the standby is
    handed no more copies than hashing it to fresh positions would move —
    counted on the rings directly: the copies a member gains that it did
    not hold before the promotion."""
    system, registries, standby = _cluster(standby_on="lan-0")
    system.run(until=10.0)
    ad_ids = sorted({ad.ad_id for r in registries for ad in r.store.all()})
    baseline = standby.shard.ads_moved_in
    registries[0].crash()
    system.run_for(30.0)
    assert standby.active
    r = system.config.sharding.replication_factor
    before, inherited, fresh = (ConsistentHashRing() for _ in range(3))
    for registry in registries:
        before.add(registry.node_id)
    for registry in registries[1:]:
        inherited.add(registry.node_id)
        fresh.add(registry.node_id)
    inherited.add(standby.node_id, registries[0].node_id)
    fresh.add(standby.node_id)

    def moves(ring):
        return sum(len(set(ring.replicas_for(ad_id, r)) - set(before.replicas_for(ad_id, r)))
                   for ad_id in ad_ids)

    for peer in registries[1:]:
        assert all(peer.shard.ring.replicas_for(ad_id, r) == inherited.replicas_for(ad_id, r)
                   for ad_id in ad_ids)
    assert moves(inherited) < moves(fresh)
    assert standby.shard.ads_moved_in - baseline <= moves(fresh)


def test_demoted_standby_resets_ring_identity():
    system, registries, standby = _cluster(standby_on="lan-0")
    system.run(until=10.0)
    registries[0].crash()
    system.run_for(20.0)
    assert standby.active
    assert standby.ring_identity == registries[0].node_id
    registries[0].restart()
    system.run_for(30.0)  # failback: the standby yields to the original
    assert not standby.active
    assert standby.ring_identity == standby.node_id


# -- placement checker ------------------------------------------------------


def test_placement_checker_detects_stray_copy():
    system, registries, _ = _cluster()
    system.run(until=20.0)  # ring converged, stray sweeps drained
    assert check_shard_placement(system) == []
    # Plant a copy on a registry outside the ad's replica set.
    donor = next(r for r in registries if len(r.store))
    ad = next(iter(donor.store.all()))
    r = system.config.sharding.replication_factor
    outsider = next(
        reg for reg in registries
        if not reg.shard.ring.owns(reg.node_id, ad.ad_id, r)
    )
    outsider.store.put(replace(ad))
    violations = check_shard_placement(system)
    assert any(ad.ad_id in v and outsider.node_id in v for v in violations)


def test_placement_checker_vacuous_when_sharding_off():
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(),
                             config=DiscoveryConfig())
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    system.add_service("lan-0", _radar("radar"))
    system.run(until=5.0)
    assert check_shard_placement(system) == []


# -- rebalancing inside the purge window ---------------------------------------


def test_rebalance_moves_no_lapsed_advertisement():
    """Between a lease lapsing and the purge sweep dropping it the ad is
    still in the store: a ring change in that window must not ship it
    (its remaining lease is zero — the receiver used to die granting it)."""
    config = DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        lease_duration=5.0, purge_interval=50.0, beacon_interval=None,
        sharding=ShardingConfig(enabled=True),
    )
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(), config=config)
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    first = system.add_registry("lan-0", node_id="registry-00")
    services = [system.add_service("lan-0", _radar(f"radar-{i}")) for i in range(12)]
    system.run(until=4.0)
    held = len(first.store)
    assert held >= 12
    for service in services:
        service.crash()
    system.run(until=12.0)  # every lease lapsed, none purged yet
    assert len(first.store) == held
    joiner = system.add_registry("lan-1", node_id="registry-01",
                                 seeds=(first.node_id,))
    system.run(until=20.0)
    assert joiner.alive and joiner.node_id in first.shard.ring
    assert len(joiner.store) == 0
    assert first.shard.ads_moved_out == 0 and joiner.shard.ads_moved_in == 0
