"""Write-path parity: every way into a replica's state agrees afterwards.

`WriteCoordinator.store_ad / renew_ad / remove_ad / drop_ad` are the only
code that changes what a replica holds. These tests drive each wire-level
entry into them and assert the same post-conditions for all: the store,
the lease table, the anti-entropy epoch/tombstone bookkeeping and — after
a crash and WAL replay — the recovered store all tell the same story.
"""

from __future__ import annotations

import pytest

from repro.core import protocol
from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.durability import DurabilityConfig
from repro.core.invariants import check_invariants, check_recovery, store_snapshot
from repro.core.sharding import ConsistentHashRing, ShardingConfig
from repro.core.system import DiscoverySystem
from repro.core.writes import QUORUM_TIMEOUT
from repro.descriptions.uri import UriDescription
from repro.netsim.node import Node
from repro.registry.advertisements import Advertisement
from repro.semantics.generator import battlefield_ontology

EPOCH = 7  # origin epoch carried by replicated copies


class Peer(Node):
    """Stands in for a service and for a peer registry; ignores replies."""

    def handle_message(self, envelope):
        pass


def _deployment(*, sharded=True):
    """One durable replicate-ads registry — by default alone on its shard
    ring, so it owns every key; unsharded for the flood's own message."""
    config = DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        antientropy_interval=2.0, lease_duration=30.0, purge_interval=1.0,
        beacon_interval=None,
        sharding=ShardingConfig(enabled=sharded, replication_factor=1,
                                write_quorum=1),
        durability=DurabilityConfig(enabled=True, snapshot_interval=None),
    )
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    peer = system.network.add_node(Peer("registry-zz"), "lan-0")
    system.run(until=0.5)
    return system, registry, peer


@pytest.fixture
def deployment():
    return _deployment()


def _ad(ad_id, version=1):
    return Advertisement(
        ad_id=ad_id, service_node="svc", service_name="radar",
        endpoint="svc://radar", model_id="uri",
        description=UriDescription(type_uri="ncw:RadarService",
                                   endpoint="svc://radar", service_name="radar"),
        version=version, home_registry="registry-zz",
    )


def _entry(ad_id, version=1):
    return protocol.AdForwardPayload(
        advertisement=_ad(ad_id, version), lease_duration=30.0, epoch=EPOCH,
    )


def _publish(ad_id, lease_duration=None):
    ad = _ad(ad_id)
    return protocol.PUBLISH, protocol.PublishPayload(
        service_node=ad.service_node, service_name=ad.service_name,
        endpoint=ad.endpoint, model_id=ad.model_id,
        description=ad.description, ad_id=ad_id, lease_duration=lease_duration,
    )


STORE_ENTRIES = {
    "publish": _publish,
    "ad-forward": lambda ad_id: (protocol.AD_FORWARD, _entry(ad_id)),
    "shard-store": lambda ad_id: (
        protocol.SHARD_STORE,
        protocol.ShardStorePayload(request_id="", entry=_entry(ad_id)),
    ),
    "shard-transfer": lambda ad_id: (
        protocol.SHARD_TRANSFER, protocol.SyncAdsPayload(ads=(_entry(ad_id),)),
    ),
    "antientropy-ads": lambda ad_id: (
        protocol.ANTIENTROPY_ADS, protocol.SyncAdsPayload(ads=(_entry(ad_id),)),
    ),
}


def _crash_and_replay(system, registry):
    """Crash, replay the WAL, and return the recovery violations."""
    pre = store_snapshot(registry)
    registry.crash()
    system.run_for(0.5)
    registry.restart()
    return check_recovery(registry, pre)


@pytest.mark.parametrize("entry", sorted(STORE_ENTRIES))
def test_every_store_entry_leaves_the_replica_consistent(entry):
    # AD_FORWARD is the flood's message: a sharded registry does not serve it.
    system, registry, peer = _deployment(sharded=entry != "ad-forward")
    expected_epoch = registry.writes.lease_epoch() if entry == "publish" else EPOCH
    peer.send(registry.node_id, *STORE_ENTRIES[entry]("ad-x"))
    system.run_for(0.2)

    assert registry.store.get("ad-x").version == 1
    lease = registry.leases.lease_for_ad("ad-x")
    assert lease is not None and lease.duration == 30.0
    assert registry.antientropy.epochs["ad-x"] == expected_epoch
    assert "ad-x" not in registry.antientropy.tombstones
    assert check_invariants(system) == []

    assert _crash_and_replay(system, registry) == []
    assert registry.store.get("ad-x").version == 1
    assert registry.leases.lease_for_ad("ad-x").lease_id == lease.lease_id
    assert registry.antientropy.epochs["ad-x"] == expected_epoch
    assert check_invariants(system) == []


def _foreign_key(registry, peer):
    """An ad id the ring hands to ``peer`` once it joins (R = 1)."""
    ring = ConsistentHashRing()
    ring.add(registry.node_id)
    ring.add(peer.node_id)
    return next(f"ad-{i}" for i in range(1000)
                if ring.owns(peer.node_id, f"ad-{i}", 1))


def _handoff(system, registry, peer, ad_id):
    registry.shard.note_member(peer.node_id, at=system.sim.now)
    system.run_for(0.2)


def _send(msg_type, payload):
    def apply(system, registry, peer, ad_id):
        peer.send(registry.node_id, msg_type, payload(ad_id))
        system.run_for(0.2)
    return apply


def _let_lease_lapse(system, registry, peer, ad_id):
    system.run_for(4.0)  # published with a 2 s lease, never renewed


#: name -> (how the ad leaves, whether a tombstone must stay behind)
REMOVE_ENTRIES = {
    "remove": (_send(protocol.REMOVE,
                     lambda ad_id: protocol.RemovePayload(ad_id=ad_id)), True),
    "shard-remove": (_send(
        protocol.SHARD_REMOVE,
        lambda ad_id: protocol.ShardRemovePayload(request_id="", ad_id=ad_id),
    ), True),
    "adopted-tombstone": (_send(
        protocol.ANTIENTROPY_DIGEST,
        lambda ad_id: protocol.DigestPayload(tombstones=((ad_id, 1),)),
    ), True),
    "lease-purge": (_let_lease_lapse, False),
    "shard-handoff": (_handoff, False),
}


@pytest.mark.parametrize("entry", sorted(REMOVE_ENTRIES))
def test_every_remove_entry_leaves_the_replica_consistent(deployment, entry):
    system, registry, peer = deployment
    leave, tombstoned = REMOVE_ENTRIES[entry]
    ad_id = _foreign_key(registry, peer)
    peer.send(registry.node_id, *_publish(ad_id, lease_duration=2.0
                                          if entry == "lease-purge" else None))
    system.run_for(0.2)
    assert ad_id in registry.store
    removals = registry.rim.removals

    leave(system, registry, peer, ad_id)

    def gone():
        assert ad_id not in registry.store
        assert registry.leases.lease_for_ad(ad_id) is None
        assert ad_id not in registry.antientropy.epochs
        assert (ad_id in registry.antientropy.tombstones) == tombstoned
        assert check_invariants(system) == []

    gone()
    assert registry.rim.removals == removals + 1
    assert _crash_and_replay(system, registry) == []
    gone()


def test_stale_copy_is_never_replayed_over_a_newer_one(deployment):
    """The store's version guard keeps v3 when a straggling v1 arrives;
    the WAL must say the same, or replay would bring v1 back."""
    system, registry, peer = deployment
    for version in (3, 1):
        peer.send(registry.node_id, protocol.SHARD_STORE, protocol.ShardStorePayload(
            request_id="", entry=_entry("ad-x", version),
        ))
        system.run_for(0.2)
    assert registry.store.get("ad-x").version == 3
    assert _crash_and_replay(system, registry) == []
    assert registry.store.get("ad-x").version == 3


def test_a_refused_late_renew_still_lets_the_purge_expire_the_ad():
    """A renew that arrives after the lease lapsed but before the purge is
    NACKed; if the service then dies instead of republishing, the next
    purge must still remove its advertisement."""
    config = DiscoveryConfig(lease_duration=10.0, purge_interval=20.0, beacon_interval=None)
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(), config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    service = system.network.add_node(Peer("svc"), "lan-0")  # ignores the NACK
    system.run(until=0.5)
    service.send(registry.node_id, *_publish("ad-x"))
    system.run_for(0.2)
    lease = registry.leases.lease_for_ad("ad-x")
    assert lease is not None and lease.expires_at < 12.0 < 20.0
    system.run(until=12.0)  # lapsed, not yet purged
    assert "ad-x" in registry.store
    nacks = registry.network.stats.messages_sent
    service.send(registry.node_id, protocol.RENEW,
                 protocol.RenewPayload(lease_id=lease.lease_id, ad_id="ad-x"))
    system.run_for(0.2)
    assert registry.network.stats.messages_sent == nacks + 2  # the renew and its NACK
    system.run(until=45.0)  # the service never republishes
    assert "ad-x" not in registry.store
    assert registry.leases.expired_total == 1
    assert check_invariants(system) == []


def test_a_renew_naming_another_ads_lease_is_nacked_and_renews_nothing():
    """``RENEW(ad_id=a, lease_id=<b's lease>)`` must not pass for a renewal
    of ``a``: it is NACKed (so ``a``'s service republishes), neither lease
    moves, no WAL record is written, and ``b`` still lapses on time."""
    config = DiscoveryConfig(lease_duration=10.0, purge_interval=1.0, beacon_interval=None,
                             durability=DurabilityConfig(enabled=True, snapshot_interval=None))
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(), config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    replies = []

    class Service(Node):
        def handle_message(self, envelope):
            replies.append(envelope.msg_type)

    service = system.network.add_node(Service("svc"), "lan-0")
    system.run(until=0.5)
    for ad_id in ("ad-a", "ad-b"):
        service.send(registry.node_id, *_publish(ad_id))
    system.run_for(0.2)
    lease_a, lease_b = map(registry.leases.lease_for_ad, ("ad-a", "ad-b"))
    expiries = (lease_a.expires_at, lease_b.expires_at)
    assert expiries[1] < 11.0
    system.run(until=8.0)
    appends = registry.durability.wal_appends
    service.send(registry.node_id, protocol.RENEW,
                 protocol.RenewPayload(lease_id=lease_b.lease_id, ad_id="ad-a"))
    system.run_for(0.2)
    assert replies[-1] == protocol.RENEW_NACK
    assert (lease_a.expires_at, lease_b.expires_at) == expiries
    assert registry.durability.wal_appends == appends
    system.run(until=11.5)
    assert "ad-a" not in registry.store and "ad-b" not in registry.store
    assert check_invariants(system) == []


def test_a_proxy_lease_renew_with_no_replica_to_ask_is_nacked_at_once():
    """A ``shard:`` lease is renewed by the first other replica still
    holding the ad. Where the ring names no other replica the write has no
    target to wait for: it is NACKed at once (the service republishes), not
    after ``QUORUM_TIMEOUT``, and nothing is tracked."""
    config = DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS, beacon_interval=None,
                             sharding=ShardingConfig(enabled=True))
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(), config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    replies = []

    class Service(Node):
        def handle_message(self, envelope):
            if envelope.msg_type in (protocol.RENEW_ACK, protocol.RENEW_NACK):
                replies.append((envelope.msg_type, self.sim.now))

    service = system.network.add_node(Service("svc"), "lan-0")
    system.run(until=0.5)
    service.send(registry.node_id, protocol.RENEW,
                 protocol.RenewPayload(lease_id="shard:ad-x", ad_id="ad-x"))
    system.run_for(1.0)
    (kind, at), = replies
    assert kind == protocol.RENEW_NACK and at < 0.5 + QUORUM_TIMEOUT / 2
    assert registry.writes.counters()["quorum_writes"] == 0
