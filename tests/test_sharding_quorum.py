"""Quorum-write edge cases for the sharded federation.

A publish reaching W acks while one replica is crashed mid-write, a
restarted replica catching up on the writes it missed (also composed with
WAL recovery from the durability layer), and incarnation fencing of stale
shard writes on a rejoining replica.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import protocol
from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.durability import (
    DurabilityConfig,
    FENCED_MSG_TYPES,
    INCARNATION_HEADER,
)
from repro.core.invariants import (
    assert_invariants,
    check_convergence,
    check_shard_placement,
)
from repro.core.sharding import ShardingConfig
from repro.core.system import DiscoverySystem
from repro.netsim.messages import Envelope
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest

REQUEST = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


def _radar(name):
    return ServiceProfile.build(name, "ncw:RadarService",
                                outputs=["ncw:AirTrack"])


def _cluster(seed=7, *, n=4, r=3, w=2, durable=False, services=4,
             antientropy_interval=2.0, **overrides):
    """A sharded replicate-ads cluster: one registry per LAN, ring seeds."""
    config = DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        antientropy_interval=antientropy_interval, lease_duration=30.0, purge_interval=2.0,
        query_timeout=2.0, aggregation_timeout=0.3,
        sharding=ShardingConfig(
            enabled=True, replication_factor=r, write_quorum=w),
        durability=DurabilityConfig(enabled=durable),
        **overrides,
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
    for i in range(services):
        system.add_service(f"lan-{i % n}", _radar(f"radar-{i}"))
    return system, registries


# -- W acks with a replica crashed mid-publish ------------------------------


def test_publish_reaches_quorum_with_one_replica_down():
    system, registries = _cluster()
    system.run(until=10.0)
    victim = registries[2]
    victim.crash()
    system.run_for(1.0)
    late = system.add_service("lan-0", _radar("late-radar"))
    system.run_for(10.0)
    # W=2 of R=3 is reachable even with the victim in the replica set:
    # every publish must be acked and the service must stay attached.
    assert late._published and all(r.acked for r in late._published.values())
    assert victim.node_id not in late.tracker.excluded
    assert_invariants(system)


def test_quorum_failure_nacks_and_service_retries():
    # R=3, W=3 with two of four registries down: quorum is unreachable,
    # the publish is NACKed with reason="quorum", and the service keeps
    # retrying on the same coordinator instead of excluding it.
    system, registries = _cluster(w=3)
    system.run(until=10.0)
    registries[2].crash()
    registries[3].crash()
    system.run_for(1.0)
    late = system.add_service("lan-0", _radar("late-radar"))
    system.run_for(6.0)
    coordinator = registries[0]
    assert coordinator.writes.quorum_failed > 0
    assert coordinator.node_id not in late.tracker.excluded
    assert late.publish_retries > 0


# -- catching up after a restart --------------------------------------------


def _owned_elsewhere(victim, registries):
    """The advertisements ``victim`` replicates, as its peers hold them."""
    return {
        ad.ad_id
        for other in registries if other is not victim
        for ad in other.store.all()
        if victim.shard.owns_local(ad.ad_id)
    }


def test_a_restarted_replica_catches_up_on_the_writes_it_missed():
    # At the default round interval (10 s) the next periodic round may be
    # further off than the bound: the digest a registry sends each
    # neighbor it (re)links with is what brings the victim up to date.
    system, registries = _cluster(
        antientropy_interval=DiscoveryConfig().antientropy_interval)
    system.run(until=10.0)
    victim = registries[2]
    victim.crash()
    system.run_for(1.0)
    system.add_service("lan-0", _radar("late-radar"))
    system.run_for(10.0)
    victim.restart()
    assert len(victim.store) == 0
    system.run_for(5.0)
    # The victim holds every advertisement it owns, including the ones
    # published while it was down.
    owned = _owned_elsewhere(victim, registries)
    assert owned
    assert owned <= {ad.ad_id for ad in victim.store.all()}
    system.run_for(15.0)
    assert check_shard_placement(system) == []
    assert check_convergence(system) == []


def test_catch_up_composes_with_wal_recovery():
    system, registries = _cluster(durable=True)
    system.run(until=10.0)
    victim = registries[2]
    pre_crash = {ad.ad_id for ad in victim.store.all()}
    assert pre_crash
    victim.crash()
    system.run_for(1.0)
    system.add_service("lan-0", _radar("late-radar"))
    system.run_for(10.0)
    victim.restart()
    # Recovery replays the WAL first (pre-crash ads with live leases come
    # back from disk), then anti-entropy delivers only the writes the
    # victim missed while down.
    assert victim.durability.replayed > 0
    system.run_for(15.0)
    assert check_shard_placement(system) == []
    assert check_convergence(system) == []
    # Every ad the victim owns that is still live cluster-wide is back in
    # its store — whether it came from the WAL or a digest exchange.  (Ads
    # whose publisher sat on the victim's own LAN may have lapsed while
    # the registry was down; those legitimately disappear everywhere.)
    held = {ad.ad_id for ad in victim.store.all()}
    live = _owned_elsewhere(victim, registries)
    assert live & pre_crash  # pre-crash state actually survived end-to-end
    assert live <= held


def test_remove_tombstone_survives_replica_downtime():
    system, registries = _cluster()
    system.run(until=10.0)
    service = next(
        s for s in system.services if s.lan_name == "lan-0"
    )
    ad_ids = {r.ad_id for r in service._published.values()}
    victim = registries[2]
    victim.crash()
    system.run_for(1.0)
    service.deregister()
    service.crash()  # gone for good: nothing republishes the unacked records
    system.run_for(5.0)
    victim.restart()
    system.run_for(20.0)
    # The remove reached the restarted replica (scoped anti-entropy):
    # nothing resurrects.
    for registry in registries:
        for ad_id in ad_ids:
            assert ad_id not in registry.store


# -- incarnation fencing ----------------------------------------------------


def test_shard_messages_are_fenced_types():
    for msg_type in (
        protocol.SHARD_STORE, protocol.SHARD_STORE_ACK,
        protocol.SHARD_RENEW, protocol.SHARD_RENEW_ACK,
        protocol.SHARD_REMOVE, protocol.SHARD_REMOVE_ACK,
        protocol.SHARD_TRANSFER,
    ):
        assert msg_type in FENCED_MSG_TYPES


def test_stale_epoch_shard_store_fenced_on_rejoining_replica():
    system, registries = _cluster(durable=True)
    system.run(until=10.0)
    receiver = registries[0]
    donor = registries[1]
    ad = next(iter(donor.store.all()))
    stale_entry = protocol.AdForwardPayload(
        advertisement=replace(ad, version=ad.version + 7),
        lease_duration=30.0, epoch=0,
    )

    def shard_store(stamp):
        return Envelope(
            msg_type=protocol.SHARD_STORE, src="registry-09",
            dst=receiver.node_id,
            payload=protocol.ShardStorePayload(request_id="", entry=stale_entry),
            headers={INCARNATION_HEADER: stamp},
        )

    # Learn incarnation 3 from the peer, then replay a pre-crash write
    # stamped 2: it must be dropped before touching the store.
    assert not receiver._fence_stale(shard_store(3))
    fenced_before = receiver.durability.fenced
    version_before = receiver.store.get(ad.ad_id).version \
        if ad.ad_id in receiver.store else None
    receiver.dispatch(shard_store(2))
    assert receiver.durability.fenced == fenced_before + 1
    after = receiver.store.get(ad.ad_id).version \
        if ad.ad_id in receiver.store else None
    assert after == version_before  # the stale write never landed


def test_shard_traffic_is_unknown_to_an_unsharded_registry():
    """Sharding off means its handlers were never registered: a stray
    SHARD_STORE is just a message type this node does not understand."""
    system = DiscoverySystem(
        seed=7, ontology=battlefield_ontology(),
        config=DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS),
    )
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    system.add_service("lan-0", _radar("radar-0"))
    system.run(until=5.0)
    assert not any(t.startswith("shard-") for t in registry.handlers)
    ad = next(iter(registry.store.all()))
    before = (len(registry.store), len(registry.leases),
              dict(registry.antientropy.epochs))
    registry.dispatch(Envelope(
        msg_type=protocol.SHARD_STORE, src="registry-09", dst=registry.node_id,
        payload=protocol.ShardStorePayload(
            request_id="w1",
            entry=protocol.AdForwardPayload(
                advertisement=replace(ad, ad_id="ad-stray"), lease_duration=30.0,
            ),
        ),
    ))
    assert registry.unknown_messages == 1
    assert "ad-stray" not in registry.store
    assert before == (len(registry.store), len(registry.leases),
                      dict(registry.antientropy.epochs))


def test_queries_survive_replica_downtime():
    system, registries = _cluster()
    client = system.add_client("lan-0")
    system.run(until=10.0)
    registries[2].crash()
    call = system.discover(client, REQUEST, timeout=20.0)
    assert call.completed and len(call.hits) == 4
