"""Durable crash recovery: WAL codec, the simulated disk, replay, fencing.

Covers the durability subsystem end to end: record framing (CRC skip,
torn-tail stop), the SimDisk storage port, snapshot compaction, restart
replay (original lease ids, expired-lease drop, tombstone restoration),
incarnation fencing, disk-fault survival, the default-off inertness
guarantee, and the crash→restart timer-leak regression.
"""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from repro.core import durability, protocol
from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.durability import (
    DurabilityConfig,
    DurabilityManager,
    FENCED_MSG_TYPES,
    INCARNATION_HEADER,
    META_FILE,
    SNAPSHOT_FILE,
    WAL_FILE,
    frame_record,
    scan_records,
)
from repro.core.invariants import assert_recovery, check_recovery, store_snapshot
from repro.core.system import DiscoverySystem
from repro.errors import LeaseError, ReproError
from repro.netsim.disk import SimDisk
from repro.registry.advertisements import Advertisement, reset_uuids
from repro.netsim.messages import Envelope
from repro.netsim.node import Node
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest
from tests.deployments import e7_ring

REQUEST = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


def _radar(name):
    return ServiceProfile.build(name, "ncw:RadarService",
                                outputs=["ncw:AirTrack"])


def _durable_config(**overrides):
    defaults = dict(
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        antientropy_interval=2.0, lease_duration=30.0, purge_interval=2.0,
        query_timeout=2.0, aggregation_timeout=0.3,
        durability=DurabilityConfig(enabled=True),
    )
    defaults.update(overrides)
    return DiscoveryConfig(**defaults)


def _single_lan(config, *, seed=7, services=2):
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    for i in range(services):
        system.add_service("lan-0", _radar(f"radar-{i}"))
    client = system.add_client("lan-0")
    return system, registry, client


# -- record framing --------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        data = b"".join(frame_record(("tag", i)) for i in range(5))
        records, corrupt, torn = scan_records(data)
        assert records == [("tag", i) for i in range(5)]
        assert corrupt == 0 and not torn

    def test_empty_and_none(self):
        assert scan_records(b"") == ([], 0, False)
        assert scan_records(None) == ([], 0, False)

    def test_crc_failure_skips_one_record(self):
        good = frame_record(("a", 1))
        bad = bytearray(frame_record(("b", 2)))
        bad[-1] ^= 0xFF  # flip a payload byte: CRC mismatch
        tail = frame_record(("c", 3))
        records, corrupt, torn = scan_records(good + bytes(bad) + tail)
        assert records == [("a", 1), ("c", 3)]
        assert corrupt == 1 and not torn

    def test_torn_tail_stops_scan(self):
        good = frame_record(("a", 1))
        partial = frame_record(("b", 2))[:-3]
        records, corrupt, torn = scan_records(good + partial)
        assert records == [("a", 1)]
        assert torn

    def test_destroyed_length_prefix_is_corrupt_tail(self):
        good = frame_record(("a", 1))
        garbage = b"\xff" * 12  # length prefix far beyond _MAX_RECORD
        records, corrupt, torn = scan_records(good + garbage)
        assert records == [("a", 1)]
        assert corrupt == 1 and torn

    def test_a_short_tail_is_torn_and_an_unpicklable_payload_corrupt(self):
        good = frame_record(("a", 1))
        assert scan_records(good + b"\x01\x02") == ([("a", 1)], 0, True)
        junk = b"not a pickle"
        framed = struct.pack("<II", len(junk), zlib.crc32(junk)) + junk
        assert scan_records(framed + good) == ([("a", 1)], 1, False)


# -- the storage port ------------------------------------------------------


class TestSimDisk:
    def test_port_contract(self):
        disk = SimDisk()
        assert disk.read("wal") is None
        disk.append("wal", b"abc")
        disk.append("wal", b"def")
        assert disk.read("wal") == b"abcdef"
        assert disk.size("wal") == 6
        disk.write("wal", b"xyz")
        assert disk.read("wal") == b"xyz"
        disk.write("snap", b"s")
        assert disk.names() == ["snap", "wal"]
        disk.delete("snap")
        assert disk.names() == ["wal"]
        disk.delete("missing")  # no-op

    def test_tear_tail_chops_half_the_last_write(self):
        disk = SimDisk()
        disk.append("wal", b"A" * 10)
        disk.append("wal", b"B" * 8)
        cut = disk.tear_tail("wal")
        assert cut == 4  # half of the 8-byte append, rounded up
        assert disk.read("wal") == b"A" * 10 + b"B" * 4
        assert disk.torn_writes == 1

    def test_tear_tail_empty_is_noop(self):
        disk = SimDisk()
        assert disk.tear_tail("wal") == 0
        disk.write("wal", b"")
        assert disk.tear_tail("wal") == 0
        assert disk.torn_writes == 0

    def test_corrupt_flips_middle_byte(self):
        disk = SimDisk()
        disk.write("wal", b"\x00" * 9)
        assert disk.corrupt("wal")
        assert disk.read("wal") == b"\x00" * 4 + b"\xff" + b"\x00" * 4
        assert disk.corruptions == 1

    def test_corrupt_empty_is_noop(self):
        disk = SimDisk()
        assert not disk.corrupt("wal")
        assert disk.corruptions == 0


# -- configuration ---------------------------------------------------------


class TestDurabilityConfig:
    def test_default_is_disabled(self):
        assert not DurabilityConfig().enabled
        assert not DiscoveryConfig().durability.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [{"snapshot_interval": 0.0}, {"snapshot_interval": -1.0}],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ReproError):
            DurabilityConfig(**kwargs)


# -- recovery end to end ---------------------------------------------------


class TestRecovery:
    def test_replay_restores_store_and_original_lease_ids(self):
        system, registry, client = _single_lan(_durable_config())
        system.run(until=5.0)
        pre = store_snapshot(registry)
        assert pre
        lease_ids = {ad_id: registry.leases.lease_for_ad(ad_id).lease_id
                     for ad_id in pre}
        registry.crash()
        system.run_for(1.0)
        registry.restart()
        assert_recovery(registry, pre)
        for ad_id, lease_id in lease_ids.items():
            restored = registry.leases.lease_for_ad(ad_id)
            assert restored is not None and restored.lease_id == lease_id
        assert registry.durability.incarnation == 1

    def test_renewals_succeed_after_recovery_without_republish(self):
        system, registry, client = _single_lan(_durable_config())
        system.run(until=5.0)
        registry.crash()
        system.run_for(1.0)
        registry.restart()
        before = system.network.stats.snapshot()
        # Two renew intervals (30 * 0.4 = 12s each): every service renews
        # its original lease; none is NACKed into republishing.
        system.run_for(25.0)
        delta = system.network.stats.delta_since(before)
        assert delta["by_type"].get("publish", {}).get("count", 0) == 0
        assert delta["by_type"].get("renew-nack", {}).get("count", 0) == 0
        call = system.discover(client, REQUEST, timeout=3.0)
        assert len(call.hits) > 0

    def test_leases_expired_during_outage_are_dropped(self):
        system, registry, client = _single_lan(_durable_config())
        system.run(until=5.0)
        pre = store_snapshot(registry)
        registry.crash()
        for service in system.services:
            service.crash()  # nobody renews during the long outage
        system.run_for(2.0 * system.config.lease_duration)
        registry.restart()
        assert len(registry.store) == 0
        assert len(registry.leases) == 0
        # The invariant agrees: every pre-crash lease expired by now.
        assert check_recovery(registry, pre) == []

    def test_remove_tombstone_survives_restart(self):
        system, registry, client = _single_lan(_durable_config())
        system.run(until=5.0)
        victim = system.services[0]
        ad_ids = [ad.ad_id for ad in registry.store.all()
                  if ad.service_node == victim.node_id]
        assert ad_ids
        victim.deregister()
        system.run_for(1.0)
        assert all(ad_id in registry.antientropy.tombstones
                   for ad_id in ad_ids)
        registry.crash()
        system.run_for(1.0)
        registry.restart()
        for ad_id in ad_ids:
            assert ad_id in registry.antientropy.tombstones
            assert ad_id not in registry.store

    def test_adopted_tombstone_survives_replica_restart(self):
        """A removal a replica only learned through anti-entropy is as
        durable as one it was told directly: crash before the next
        snapshot, restart alone — the ad stays gone, the tombstone stays."""
        config = _durable_config(
            durability=DurabilityConfig(enabled=True, snapshot_interval=None),
        )
        system = DiscoverySystem(seed=7, ontology=battlefield_ontology(),
                                 config=config)
        system.add_lan("lan-0")
        registries = [system.add_registry("lan-0"), system.add_registry("lan-0")]
        for i in range(3):
            system.add_service("lan-0", _radar(f"radar-{i}"))
        system.run(until=6.0)
        victim = system.services[0]
        home = next(r for r in registries if r.node_id == victim.tracker.current)
        replica = next(r for r in registries if r is not home)
        ad_ids = [ad.ad_id for ad in home.store.all()
                  if ad.service_node == victim.node_id]
        assert ad_ids and all(ad_id in replica.store for ad_id in ad_ids)
        victim.deregister()
        system.run_for(3 * config.antientropy_interval)
        assert replica.antientropy.removals_applied == len(ad_ids)
        assert replica.durability.snapshots == 0
        pre = store_snapshot(replica)
        for registry in registries:
            registry.crash()
        system.run_for(1.0)
        replica.restart()
        assert_recovery(replica, pre)
        for ad_id in ad_ids:
            assert ad_id not in replica.store
            assert ad_id in replica.antientropy.tombstones

    def test_snapshot_compaction_truncates_wal(self, monkeypatch):
        monkeypatch.setattr(durability, "MAX_WAL_RECORDS", 5)
        config = _durable_config(durability=DurabilityConfig(enabled=True))
        system, registry, client = _single_lan(config, services=3)
        system.run(until=20.0)
        disk = system.network.disk(registry.node_id)
        assert registry.durability.snapshots >= 1
        snap_records, _c, _t = scan_records(disk.read(SNAPSHOT_FILE))
        assert snap_records and snap_records[0][0] == "snapshot"
        # The WAL grows to as many records as the snapshot holds entries,
        # never fewer than MAX_WAL_RECORDS, and is then compacted.
        records, _corrupt, _torn = scan_records(disk.read(WAL_FILE))
        assert len(records) < max(5, len(snap_records[0][1]))

    def test_bulk_load_snapshots_each_entry_a_bounded_number_of_times(self, monkeypatch):
        """Loading N ads writes at most 2N + MAX_WAL_RECORDS snapshot
        entries in all (one snapshot per MAX_WAL_RECORDS appends would
        write ~N^2 / 2 MAX_WAL_RECORDS)."""
        written = []
        frame = durability.frame_record

        def counting(record):
            if record[0] == "snapshot":
                written.append(len(record[1]))
            return frame(record)

        monkeypatch.setattr(durability, "frame_record", counting)
        system = DiscoverySystem(seed=7, ontology=battlefield_ontology(), config=_durable_config(
            durability=DurabilityConfig(enabled=True, snapshot_interval=None)))
        system.add_lan("lan-0")
        registry = system.add_registry("lan-0")
        system.run(until=1.0)
        n = 3000
        for i in range(n):
            registry.writes.store_ad(
                Advertisement(ad_id=f"bulk-{i:06d}", service_node=f"bulk-node-{i}",
                              service_name=f"radar-{i}", endpoint=f"svc://radar-{i}",
                              model_id="semantic", description=_radar(f"radar-{i}")),
                lease_duration=1e9, epoch=0, notify=False)
        assert len(registry.store) == n and len(written) >= 2
        assert sum(written) <= 2 * n + durability.MAX_WAL_RECORDS

    def test_recovery_replays_snapshot_plus_wal(self, monkeypatch):
        monkeypatch.setattr(durability, "MAX_WAL_RECORDS", 4)
        config = _durable_config(durability=DurabilityConfig(enabled=True))
        system, registry, client = _single_lan(config, services=3)
        system.run(until=20.0)
        pre = store_snapshot(registry)
        registry.crash()
        system.run_for(0.5)
        registry.restart()
        assert_recovery(registry, pre)

    def test_same_seed_runs_are_identical(self):
        # Ad/lease ids come from a process-global counter, so two runs in
        # one process differ in ids; everything else — event timing, WAL
        # record mix, replay outcome — must be bit-identical.
        def one():
            system, registry, client = _single_lan(_durable_config())
            system.run(until=5.0)
            registry.crash()
            system.run_for(1.0)
            registry.restart()
            system.run_for(5.0)
            disk = system.network.disk(registry.node_id)
            wal, _c, _t = scan_records(disk.read(WAL_FILE))
            snap, _c2, _t2 = scan_records(disk.read(SNAPSHOT_FILE))
            return (
                sorted((ad.service_name, ad.version)
                       for ad in registry.store.all()),
                [record[0] for record in wal],
                len(snap[0][1]) if snap else 0,
                registry.durability.counters(),
                system.sim.now,
            )

        assert one() == one()

    def test_compaction_point_does_not_change_what_recovers(self, monkeypatch):
        """The same seeded stream of stores, renewals, removals and expiries,
        crashed at three points, recovers the same store, leases (ids and
        expiries) and tombstones whether the WAL is compacted every 4
        records or never but at recovery."""

        def run(max_wal_records):
            monkeypatch.setattr(durability, "MAX_WAL_RECORDS", max_wal_records)
            reset_uuids()
            system = DiscoverySystem(seed=7, ontology=battlefield_ontology(),
                                     config=_durable_config(durability=DurabilityConfig(
                                         enabled=True, snapshot_interval=None)))
            system.add_lan("lan-0")
            registry = system.add_registry("lan-0")
            system.run(until=1.0)
            rng = random.Random(11)
            recovered = []
            for step in range(1, 241):
                ad_id = f"ad-{rng.randrange(24)}"
                op = rng.choice(("store", "store", "renew", "renew", "remove", "advance"))
                if op == "store":
                    registry.writes.store_ad(
                        Advertisement(ad_id=ad_id, service_node="svc", service_name=ad_id,
                                      endpoint=f"svc://{ad_id}", model_id="semantic",
                                      description=_radar(ad_id), version=rng.randrange(1, 4)),
                        lease_duration=rng.choice((3.0, 8.0, 30.0)), epoch=0, notify=False)
                elif op == "renew" and registry.leases.lease_for_ad(ad_id) is not None:
                    try:
                        registry.writes.renew_ad(
                            ad_id, epoch=0, lease_id=registry.leases.lease_for_ad(ad_id).lease_id)
                    except LeaseError:
                        pass  # lapsed, not yet purged
                elif op == "remove":
                    registry.writes.remove_ad(ad_id)
                elif op == "advance":
                    system.run_for(rng.choice((0.5, 2.0, 5.0)))  # the purge expires leases
                if step % 80 == 0:
                    registry.crash()
                    system.run_for(rng.choice((0.5, 4.0)))
                    registry.restart()
                    recovered.append((
                        [(ad.ad_id, ad.version) for ad in registry.store.all()],
                        list(registry.leases._live()),
                        dict(registry.antientropy.tombstones),
                    ))
            return recovered, registry.durability.snapshots

        compacted, snapshots = run(4)
        logged, recovery_snapshots = run(10**9)
        assert snapshots > 20 and recovery_snapshots == 3  # both sides ran as meant
        assert all(store and leases and tombs for store, leases, tombs in logged)
        assert compacted == logged

    def test_restored_lease_ids_are_renewed_after_a_churn_restart(self):
        """Ads published, renewed and removed over the wire, as the
        ``churn_mix`` benchmark's publisher does, then a crash and restart:
        every restored lease id is the one the publisher holds, and a
        RENEW naming it is ACKed."""
        system = DiscoverySystem(seed=7, ontology=battlefield_ontology(), config=DiscoveryConfig(
            durability=DurabilityConfig(enabled=True, snapshot_interval=None)))
        system.add_lan("lan-0")
        registry = system.add_registry("lan-0")
        publisher = system.network.add_node(_Publisher("publisher"), "lan-0")
        system.run(until=2.0)
        held = {}
        for i in range(40):
            reply = publisher.request(registry.node_id, protocol.PUBLISH, protocol.PublishPayload(
                service_node=f"bench-{i}", service_name=f"radar-{i}",
                endpoint=f"svc://radar-{i}", model_id="semantic",
                description=_radar(f"radar-{i}"), ad_id=f"churn-{i:06d}", lease_duration=1e6))
            assert reply.msg_type == protocol.PUBLISH_ACK
            held[reply.payload.ad_id] = reply.payload.lease_id
        rng = random.Random(5)
        for ad_id in rng.sample(sorted(held), 10):
            reply = publisher.request(registry.node_id, protocol.RENEW,
                                      protocol.RenewPayload(lease_id=held[ad_id], ad_id=ad_id))
            assert reply.msg_type == protocol.RENEW_ACK
        for ad_id in rng.sample(sorted(held), 5):
            publisher.request(registry.node_id, protocol.REMOVE, protocol.RemovePayload(ad_id=ad_id))
            del held[ad_id]
        registry.crash()
        system.run_for(1.0)
        registry.restart()
        assert {lease.ad_id: lease.lease_id for lease in registry.leases._live()} == held
        for ad_id, lease_id in held.items():
            reply = publisher.request(registry.node_id, protocol.RENEW,
                                      protocol.RenewPayload(lease_id=lease_id, ad_id=ad_id))
            assert reply is not None and reply.msg_type == protocol.RENEW_ACK, ad_id


class _Publisher(Node):
    """A bare protocol agent that sends one request and steps the
    simulator until the registry answers it."""

    role = "bench"

    def __init__(self, node_id: str) -> None:
        super().__init__(node_id)
        self.replies: list[Envelope] = []

    def _collect(self, envelope: Envelope) -> None:
        self.replies.append(envelope)

    handle_publish_ack = handle_publish_nack = _collect
    handle_renew_ack = handle_renew_nack = handle_remove_ack = _collect

    def request(self, dst: str, msg_type: str, payload) -> Envelope | None:
        self.replies.clear()
        self.send(dst, msg_type, payload, payload_type="semantic")
        deadline = self.sim.now + 30.0
        while not self.replies and self.sim.step(until=deadline):
            pass
        return self.replies[0] if self.replies else None


# -- disk-fault survival ---------------------------------------------------


class TestDiskFaults:
    def test_torn_wal_tail_never_crashes_recovery(self):
        system, registry, client = _single_lan(_durable_config())
        system.run(until=5.0)
        registry.crash()
        disk = system.network.disk(registry.node_id)
        assert disk.tear_tail(WAL_FILE) > 0
        system.run_for(0.5)
        registry.restart()  # must not raise
        system.run_for(2.0)
        call = system.discover(client, REQUEST, timeout=3.0)
        assert call.completed

    def test_corrupt_snapshot_skipped_and_counted(self, monkeypatch):
        monkeypatch.setattr(durability, "MAX_WAL_RECORDS", 4)
        config = _durable_config(durability=DurabilityConfig(enabled=True))
        system, registry, client = _single_lan(config, services=3)
        system.run(until=20.0)
        registry.crash()
        disk = system.network.disk(registry.node_id)
        assert disk.corrupt(SNAPSHOT_FILE)
        system.run_for(0.5)
        registry.restart()  # must not raise
        assert registry.durability.corrupt_skipped >= 1

    def test_records_of_the_wrong_kind_are_skipped_and_counted(self):
        system, registry, client = _single_lan(_durable_config())
        system.run(until=5.0)
        pre = store_snapshot(registry)
        registry.crash()
        disk = system.network.disk(registry.node_id)
        for name, record in ((SNAPSHOT_FILE, ("store",)), (WAL_FILE, ("bogus", 1))):
            disk.write(name, (disk.read(name) or b"") + frame_record(record))
        system.run_for(0.5)
        registry.restart()
        assert registry.durability.corrupt_skipped == 2
        assert_recovery(registry, pre)

    def test_a_standby_giving_up_the_role_keeps_only_its_incarnation(self):
        system, registry, client = _single_lan(_durable_config())
        system.run(until=5.0)
        registry.crash()
        registry.restart()
        disk = system.network.disk(registry.node_id)
        registry.durability.discard()
        assert disk.read(WAL_FILE) == b"" and disk.read(SNAPSHOT_FILE) == b""
        # A manager built afresh on the same disk reads the incarnation back.
        fresh = DurabilityManager(registry, system.config.durability)
        assert scan_records(disk.read(META_FILE))[0] == [("meta", 1)]
        fresh.start()
        assert fresh.incarnation == 1

    def test_a_demoted_standby_promoted_again_replays_none_of_the_ads_it_handed_back(self):
        """A standby that stepped down hands its content back to the LAN's
        live registry. An ad removed there while the standby is dormant
        must not come back from the standby's own log when it is promoted
        again, even though the lease it logged has not run out."""
        config = DiscoveryConfig(
            beacon_interval=1.0, lease_duration=120.0, renew_fraction=0.05,
            purge_interval=1.0, query_timeout=2.0, aggregation_timeout=0.3,
            durability=DurabilityConfig(enabled=True),
        )
        system = DiscoverySystem(seed=31, ontology=battlefield_ontology(), config=config)
        system.add_lan("lan-0")
        primary = system.add_registry("lan-0")
        standby = system.add_standby_registry("lan-0", lan_target=1)
        service = system.add_service("lan-0", _radar("radar-0"))
        system.run(until=3.0)
        primary.crash()
        system.run_for(25.0)
        held = {ad.ad_id for ad in standby.store.all()}
        assert standby.active and held
        primary.restart()
        system.run_for(20.0)
        assert standby.demotions == 1 and service.tracker.current == primary.node_id
        service.deregister()  # graceful shutdown: the ads are removed at the primary
        system.run_for(2.0)
        service.crash()
        assert not held & {ad.ad_id for ad in primary.store.all()}
        primary.crash()
        while not standby.active:
            system.run_for(0.1)
        assert standby.promotions == 2
        assert not held & {ad.ad_id for ad in standby.store.all()}


# -- incarnation fencing ---------------------------------------------------


class TestFencing:
    def test_send_stamps_fenced_types_only(self):
        system, registry, client = _single_lan(_durable_config())
        system.run(until=2.0)
        stamped = registry.send(registry.node_id, "ad-forward")
        assert stamped.headers[INCARNATION_HEADER] == 0
        plain = registry.send(registry.node_id, "publish")
        assert INCARNATION_HEADER not in plain.headers

    def test_stale_incarnation_dropped_and_counted(self):
        system, registry, client = _single_lan(_durable_config())
        system.run(until=2.0)

        def envelope(stamp):
            return Envelope(msg_type="ad-forward", src="peer-x",
                            dst=registry.node_id,
                            headers={INCARNATION_HEADER: stamp})

        assert not registry._fence_stale(envelope(3))  # learn epoch 3
        assert registry._fence_stale(envelope(2))      # stale: fenced
        assert registry.durability.fenced == 1
        assert not registry._fence_stale(envelope(3))
        assert not registry._fence_stale(envelope(4))
        unstamped = Envelope(msg_type="ad-forward", src="peer-x",
                             dst=registry.node_id)
        assert not registry._fence_stale(unstamped)

    @pytest.mark.parametrize("msg_type", sorted(FENCED_MSG_TYPES))
    def test_every_fenced_type_is_fenced_before_its_handler(self, msg_type):
        """The fence sits in front of the dispatch table, keyed by the
        same set ``send()`` stamps by — no handler has to opt in."""
        system, registry, client = _single_lan(_durable_config())
        system.run(until=2.0)
        handled = []
        registry.handlers[msg_type] = handled.append

        def envelope(stamp):
            return Envelope(msg_type=msg_type, src="peer-x",
                            dst=registry.node_id,
                            headers={INCARNATION_HEADER: stamp})

        registry.dispatch(envelope(3))  # learn epoch 3
        assert len(handled) == 1 and registry.durability.fenced == 0
        registry.dispatch(envelope(2))  # a previous life of peer-x
        assert len(handled) == 1 and registry.durability.fenced == 1
        assert system.network.metrics.counter("durability.fenced").value == 1

    def test_restart_bumps_advertised_incarnation(self):
        system, registry, client = _single_lan(_durable_config())
        system.run(until=2.0)
        assert registry.send(registry.node_id, "ad-forward") \
            .headers[INCARNATION_HEADER] == 0
        registry.crash()
        system.run_for(0.5)
        registry.restart()
        assert registry.send(registry.node_id, "ad-forward") \
            .headers[INCARNATION_HEADER] == 1


# -- timer-leak regression (crash → restart cycles) ------------------------


class TestTimerLeaks:
    def test_registry_periodics_stable_across_restart_cycles(self):
        system, registry, client = _single_lan(_durable_config())
        system.run(until=3.0)
        baseline = len(registry._periodics)
        assert baseline > 0
        for _ in range(3):
            registry.crash()
            system.run_for(0.5)
            registry.restart()
            system.run_for(0.5)
            assert len(registry._periodics) == baseline
            assert len(registry._timers) <= baseline + len(system.services)

    def test_answered_queries_leave_no_timer_behind(self):
        """Completing an aggregation cancels its timeout; a cancelled
        timer must leave ``Node._timers`` like a fired one does."""
        ring = e7_ring()
        held = []
        for discovers in (100, 200):
            ring.discover(discovers)
            for node in ring.system.network.nodes.values():
                assert len(node._timers) == sum(t.pending for t in node._timers), \
                    node.node_id
            held.append([len(r._timers) for r in ring.system.registries])
        assert held[0] == held[1]

    def test_standby_periodics_stable_across_promote_demote(self):
        config = DiscoveryConfig(
            beacon_interval=1.0, lease_duration=10.0, purge_interval=1.0,
            query_timeout=2.0, aggregation_timeout=0.3,
        )
        system = DiscoverySystem(seed=7, ontology=battlefield_ontology(),
                                 config=config)
        system.add_lan("lan-0")
        primary = system.add_registry("lan-0")
        standby = system.add_standby_registry("lan-0", lan_target=1)
        system.run(until=3.0)
        dormant_baseline = len(standby._periodics)
        for _ in range(3):
            primary.crash()
            deadline = system.sim.now + 20.0
            while system.sim.now < deadline and not standby.active:
                system.run_for(0.5)
            assert standby.active
            promoted = len(standby._periodics)
            primary.restart()
            deadline = system.sim.now + 20.0
            while system.sim.now < deadline and standby.active:
                system.run_for(0.5)
            assert not standby.active
            assert len(standby._periodics) == dormant_baseline
        # Promotion count stayed flat too: each cycle armed the same set.
        assert promoted >= dormant_baseline
