"""Every violation an oracle can report, provoked on purpose.

An oracle that has never failed is not yet an oracle. Each test below
builds a small settled deployment, checks that the sweep is clean, then
corrupts one piece of state the way a faulty recovery path would and
expects the sweep's exact message: ``core/invariants.py``'s
bookkeeping, convergence, placement and recovery sweeps, the raising
``assert_*`` wrappers, and ``AdmissionController.audit``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.invariants import (
    assert_convergence,
    assert_invariants,
    assert_recovery,
    check_convergence,
    check_invariants,
    check_recovery,
    check_shard_placement,
    store_snapshot,
)
from repro.core.sharding import ShardingConfig
from repro.core.system import DiscoverySystem
from repro.errors import InvariantError
from repro.obs.health import HealthConfig
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile


def _radar(name):
    return ServiceProfile.build(name, "ncw:RadarService", outputs=["ncw:AirTrack"])


def _deployment(config, *, registries=1, services=3, until=6.0):
    """``registries`` ring-seeded registries, one LAN each, and
    ``services`` radars spread over them, run until settled."""
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(), config=config)
    for i in range(registries):
        system.add_lan(f"lan-{i}")
    nodes = [system.add_registry(f"lan-{i}", node_id=f"registry-{i}",
                                 seeds=(f"registry-{(i + 1) % registries}",))
             for i in range(registries)]
    for i in range(services):
        system.add_service(f"lan-{i % registries}", _radar(f"radar-{i}"))
    system.run(until=until)
    return system, nodes


def _replicating(**overrides):
    return DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
                           antientropy_interval=2.0, **overrides)


def _sharded():
    return _replicating(lease_duration=30.0, purge_interval=2.0, sharding=ShardingConfig(
        enabled=True, replication_factor=2, write_quorum=1))


# -- check_invariants / assert_invariants ------------------------------------------


def test_an_advertisement_without_a_lease_is_reported():
    system, (registry,) = _deployment(DiscoveryConfig())
    assert check_invariants(system) == []
    ad_id = sorted(ad.ad_id for ad in registry.store.all())[0]
    registry.leases.cancel_for_ad(ad_id)
    assert check_invariants(system) == [
        f"registry-0: advertisement {ad_id} has no lease; no purge will ever remove it"
    ]


def test_admission_rot_reaches_the_sweep_and_the_raise_dumps_the_flight_recorder():
    system, (registry,) = _deployment(DiscoveryConfig(health=HealthConfig(enabled=True)))
    assert check_invariants(system) == []
    registry.admission.intercepted += 1
    message = ("registry-0: admission conservation broken: intercepted=1 but "
               "dispatched=0 + shed=0 + lost=0 + pending=0 = 0")
    assert check_invariants(system) == [message]
    with pytest.raises(InvariantError) as raised:
        assert_invariants(system)
    assert str(raised.value) == "invariant violations:\n  " + message
    assert [dump.reason for dump in system.health.dumps] == [
        "invariant-violation: " + message]


# -- AdmissionController.audit ---------------------------------------------------


def test_admission_audit_names_each_broken_fate():
    _system, (registry,) = _deployment(DiscoveryConfig(), services=0, until=1.0)
    admission = registry.admission
    assert admission.audit() == []
    assert admission.counters() == {
        "intercepted": 0, "dispatched": 0, "shed": 0, "busy_sent": 0,
        "lost_on_crash": 0, "pending": 0, "max_depth": 0,
    }
    admission.busy_sent += 1
    assert admission.audit() == ["shed work not answered: shed=0 but busy_sent=1"]
    admission.busy_sent -= 1
    admission._shed_ids.update({3, 9})
    admission._dispatched_ids.update({9, 4})
    assert admission.audit() == ["1 messages both shed and dispatched (seqs [9])"]


# -- check_convergence / assert_convergence --------------------------------------------


def test_a_diverging_replica_is_named_and_raised():
    system, registries = _deployment(_replicating(), registries=3, until=10.0)
    assert check_convergence(system) == []
    victim = registries[1]
    ad = sorted(victim.store.all(), key=lambda ad: ad.ad_id)[0]
    victim.store.discard(ad.ad_id)
    message = (f"registry-1: store diverges from majority view "
               f"(extra=[], missing=[('{ad.ad_id}', {ad.version})])")
    assert check_convergence(system) == [message]
    with pytest.raises(InvariantError) as raised:
        assert_convergence(system)
    assert str(raised.value) == "store convergence violations:\n  " + message


def test_convergence_is_vacuous_below_two_live_replicas():
    system, registries = _deployment(_replicating(), registries=2, until=10.0)
    registries[1].crash()
    registries[0].store.discard(next(iter(registries[0].store.all())).ad_id)
    assert check_convergence(system) == []


# -- sharded sweeps -------------------------------------------------------------------


def test_diverging_shard_replicas_are_named():
    system, registries = _deployment(_sharded(), registries=3, services=4, until=20.0)
    assert check_convergence(system) == [] and check_shard_placement(system) == []
    holder = next(r for r in registries if len(r.store))
    ad = sorted(holder.store.all(), key=lambda ad: ad.ad_id)[0]
    replicas = holder.shard.ring.replicas_for(ad.ad_id, 2)
    other = next(r for r in registries if r.node_id in replicas and r is not holder)
    other.store.discard(ad.ad_id)
    detail = ", ".join(f"{m}={ad.version if m == holder.node_id else '-'}"
                       for m in sorted(replicas))
    assert check_convergence(system) == [f"shard replicas diverge on {ad.ad_id}: {detail}"]


def test_an_advertisement_only_a_stranger_holds_is_placed_nowhere():
    system, registries = _deployment(_sharded(), registries=3, services=4, until=20.0)
    ad = sorted((ad for r in registries for ad in r.store.all()),
                key=lambda ad: ad.ad_id)[0]
    replicas = registries[0].shard.ring.replicas_for(ad.ad_id, 2)
    (stranger,) = [r for r in registries if r.node_id not in replicas]
    for registry in registries:
        registry.store.discard(ad.ad_id)
    stranger.store.put(replace(ad))
    assert check_shard_placement(system) == [
        f"{stranger.node_id}: holds {ad.ad_id} outside its assigned replica set {replicas}",
        f"{ad.ad_id}: no alive assigned replica ({list(replicas)}) holds it",
    ]


def test_placement_keeps_a_crashed_member_on_the_ring_and_is_vacuous_with_none_alive():
    system, registries = _deployment(_sharded(), registries=3, services=4, until=20.0)
    registries[2].crash()
    # The survivors still place by a ring that holds the crashed member.
    assert check_shard_placement(system) == []
    for registry in registries[:2]:
        registry.crash()
    assert check_shard_placement(system) == []


# -- check_recovery / assert_recovery ------------------------------------------------


def test_recovery_names_each_way_replay_can_go_wrong():
    system, (registry,) = _deployment(DiscoveryConfig(), services=4)
    now = system.sim.now
    pre = store_snapshot(registry)
    assert check_recovery(registry, pre) == []
    lapsed, stale, unknown = sorted(pre)[:3]
    version, expires = pre[stale]
    pre[lapsed] = (pre[lapsed][0], now - 1.0)
    pre[stale] = (version + 1, expires)
    del pre[unknown]
    pre["ghost"] = (1, now + 5.0)
    violations = [
        f"registry-0: recovered {lapsed} whose lease expired at {now - 1.0:g} (now={now:g})",
        f"registry-0: recovered {stale} at stale version {version} < pre-crash {version + 1}",
        f"registry-0: lost ghost whose lease was still live (expires {now + 5.0:g}, now={now:g})",
        f"registry-0: recovered {unknown} the registry never held before the crash",
    ]
    assert check_recovery(registry, pre) == violations
    with pytest.raises(InvariantError) as raised:
        assert_recovery(registry, pre, now=now)
    assert str(raised.value) == "recovery violations:\n  " + "\n  ".join(violations)
