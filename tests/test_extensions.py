"""Tests for the optional/extension features: subscriptions, informed
routing, standby registries, and mediation."""

from __future__ import annotations

import pytest

from repro.core import protocol
from repro.core.config import DiscoveryConfig, STRATEGY_INFORMED
from repro.core.mediation import MediationPlanner
from repro.core.standby import StandbyRegistry
from repro.core.system import DiscoverySystem, make_models
from repro.errors import ReproError
from repro.semantics.generator import battlefield_ontology, emergency_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest

REQUEST = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


def _radar(name="radar-1"):
    return ServiceProfile.build(name, "ncw:RadarService",
                                outputs=["ncw:AirTrack"])


@pytest.fixture
def fast_cfg():
    return DiscoveryConfig(
        beacon_interval=1.0, lease_duration=5.0, purge_interval=1.0,
        query_timeout=2.0, aggregation_timeout=0.3, signalling_interval=2.0,
    )


def _single_lan(cfg, seed=31):
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=cfg)
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    return system


# -- subscriptions / notifications --------------------------------------------

def test_watch_notifies_on_new_publish(fast_cfg):
    system = _single_lan(fast_cfg)
    client = system.add_client("lan-0")
    system.run(until=2.0)
    watch = client.watch(REQUEST)
    system.run_for(0.5)
    assert watch.acked
    assert watch.hits == []
    system.add_service("lan-0", _radar())
    system.run_for(2.0)
    assert watch.service_names() == ["radar-1"]
    assert watch.notified_at


def test_watch_does_not_notify_nonmatching(fast_cfg):
    system = _single_lan(fast_cfg)
    client = system.add_client("lan-0")
    system.run(until=2.0)
    watch = client.watch(REQUEST)
    system.add_service("lan-0", ServiceProfile.build(
        "fuel", "ncw:FuelStatusService", outputs=["ncw:Order"]))
    system.run_for(2.0)
    assert watch.hits == []


def test_watch_survives_lease_horizon(fast_cfg):
    system = _single_lan(fast_cfg)
    client = system.add_client("lan-0")
    system.run(until=2.0)
    watch = client.watch(REQUEST)
    system.run_for(4 * fast_cfg.lease_duration)
    system.add_service("lan-0", _radar("late"))
    system.run_for(2.0)
    assert watch.service_names() == ["late"]


def test_unwatch_stops_notifications(fast_cfg):
    system = _single_lan(fast_cfg)
    client = system.add_client("lan-0")
    system.run(until=2.0)
    watch = client.watch(REQUEST)
    system.run_for(0.5)
    client.unwatch(watch)
    system.run_for(0.5)
    system.add_service("lan-0", _radar())
    system.run_for(2.0)
    assert watch.hits == []


def test_abandoned_subscription_expires_at_registry(fast_cfg):
    system = _single_lan(fast_cfg)
    client = system.add_client("lan-0")
    registry = system.registries[0]
    system.run(until=2.0)
    client.watch(REQUEST)
    system.run_for(0.5)
    assert len(registry.subscriptions) == 1
    client.crash()  # no more refreshes
    system.run_for(3 * fast_cfg.lease_duration)
    assert len(registry.subscriptions) == 0


def test_expired_subscription_is_not_notified_without_leasing():
    """With leasing off no purge runs, so nothing lapsed an abandoned
    subscription: a publish long after its expiry still sent a NOTIFY to
    the crashed client."""
    system = _single_lan(DiscoveryConfig(leasing_enabled=False, lease_duration=10.0))
    client = system.add_client("lan-0")
    registry = system.registries[0]
    system.run(until=2.0)
    client.watch(REQUEST)
    system.run(until=3.0)
    assert len(registry.subscriptions) == 1
    client.crash()
    system.run(until=40.0)
    system.add_service("lan-0", _radar())
    system.run_for(2.0)
    assert registry.subscriptions.notifications_sent == 0
    assert protocol.NOTIFY not in system.network.stats.snapshot()["by_type"]
    assert len(registry.subscriptions) == 0


def test_watch_reestablished_after_registry_failover(fast_cfg):
    system = DiscoverySystem(seed=32, ontology=battlefield_ontology(),
                             config=fast_cfg)
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    r0 = system.add_registry("lan-0")
    system.add_registry("lan-1")
    system.federate_chain()
    client = system.add_client("lan-0")
    system.run(until=5.0)  # signalling primes alternatives
    watch = client.watch(REQUEST)
    system.run_for(1.0)
    r0.crash()
    # Failover happens on the next query; issue one to trigger it.
    system.discover(client, REQUEST, timeout=30.0)
    system.run_for(1.0)
    assert client.tracker.current == "registry-01"
    # New services now notify via the new registry.
    system.add_service("lan-1", _radar("post-failover"))
    system.run_for(3.0)
    assert "post-failover" in watch.service_names()


def test_notification_deduplicates_replayed_publishes(fast_cfg):
    system = _single_lan(fast_cfg)
    client = system.add_client("lan-0")
    service = system.add_service("lan-0", _radar())
    system.run(until=2.0)
    watch = client.watch(REQUEST)
    # Republish (profile update) bumps version; dedup is by ad UUID.
    service.update_profile(_radar())
    system.run_for(1.0)
    service.update_profile(_radar())
    system.run_for(1.0)
    assert watch.service_names().count("radar-1") == 1


# -- informed (summary) routing ----------------------------------------------------

@pytest.fixture
def informed_system():
    cfg = DiscoveryConfig(strategy=STRATEGY_INFORMED, signalling_interval=2.0,
                          aggregation_timeout=0.3)
    system = DiscoverySystem(seed=33, ontology=battlefield_ontology(),
                             config=cfg)
    for i in range(4):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
    system.federate_ring()
    system.add_service("lan-2", _radar("radar-far"))
    system.add_service("lan-3", ServiceProfile.build(
        "fuel", "ncw:FuelStatusService", outputs=["ncw:Order"]))
    return system


def test_informed_finds_remote_matches(informed_system):
    client = informed_system.add_client("lan-0")
    informed_system.run(until=20.0)  # summaries gossip around the ring
    call = informed_system.discover(client, REQUEST, timeout=30.0)
    assert call.service_names() == ["radar-far"]


def test_informed_skips_irrelevant_registries(informed_system):
    client = informed_system.add_client("lan-0")
    informed_system.run(until=20.0)
    stats = informed_system.network.stats
    before = stats.by_type_count.get("query-forward", 0)
    informed_system.discover(client, REQUEST, timeout=30.0)
    after = stats.by_type_count.get("query-forward", 0)
    assert after - before == 1  # only the radar-holding registry was asked


def _described_terms(cfg):
    system = DiscoverySystem(seed=34, ontology=battlefield_ontology(),
                             config=cfg)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    system.add_service("lan-0", _radar())
    system.run(until=2.0)
    return registry.describe().summary_terms


def test_summaries_only_when_enabled():
    """Descriptions carry content summaries for the strategy that routes
    by them, and for no other (they cost larger beacons and gossip)."""
    assert _described_terms(DiscoveryConfig()) == ()
    assert _described_terms(DiscoveryConfig(strategy=STRATEGY_INFORMED))


def test_summary_terms_subsumption_aware(fast_cfg):
    terms = _described_terms(DiscoveryConfig(strategy=STRATEGY_INFORMED))
    assert "ncw:RadarService" in terms
    assert "ncw:SensorService" in terms  # ancestor indexed
    assert "owl:Thing" not in terms
    assert "ncw:Service" not in terms    # near-root pruned


# -- standby registries -----------------------------------------------------------

def test_standby_requires_beacons():
    with pytest.raises(ReproError):
        StandbyRegistry("s", DiscoveryConfig(beacon_interval=None),
                        make_models(None, ("uri",)))


def test_standby_target_validation():
    with pytest.raises(ReproError):
        StandbyRegistry("s", DiscoveryConfig(), make_models(None, ("uri",)),
                        lan_target=0)


def test_standby_stays_dormant_while_quota_met(fast_cfg):
    system = _single_lan(fast_cfg)
    standby = system.add_standby_registry("lan-0", lan_target=1)
    system.run(until=10.0)
    assert not standby.active
    assert standby.promotions == 0
    assert len(standby.store) == 0


def test_dormant_standby_on_a_probing_lan_counts_nothing_and_notes_beacons(fast_cfg):
    """A dormant standby overrides ``receive``: the probes of the LAN's
    services still reach it as copies, and it ignores them without
    counting them while it keeps noting the primary's beacons."""
    system = _single_lan(fast_cfg)
    primary = system.registries[0]
    standby = system.add_standby_registry("lan-0", lan_target=1)
    services = [system.add_service("lan-0", _radar(f"radar-{i}")) for i in range(3)]
    seen = []
    receive = standby.receive
    standby.receive = lambda envelope: (seen.append(envelope.msg_type), receive(envelope))
    system.run(until=4.0)
    for service in services:
        service.tracker.probe()
    system.run_for(1.0)
    assert not standby.active
    assert seen.count(protocol.REGISTRY_PROBE) >= 2 * len(services)
    assert seen.count(protocol.REGISTRY_BEACON) >= 3
    assert standby.unknown_messages == standby.malformed_messages == 0
    assert standby._live_lan_registries() == [primary.node_id]


def test_standby_promotes_on_registry_loss_and_serves(fast_cfg):
    system = _single_lan(fast_cfg)
    primary = system.registries[0]
    standby = system.add_standby_registry("lan-0", lan_target=1)
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=3.0)
    primary.crash()
    system.run_for(10.0)
    assert standby.active
    call = system.discover(client, REQUEST, timeout=30.0)
    assert call.via == f"registry:{standby.node_id}"
    assert call.service_names() == ["radar-1"]


def test_standby_demotes_when_primary_returns(fast_cfg):
    system = _single_lan(fast_cfg)
    primary = system.registries[0]
    standby = system.add_standby_registry("lan-0", lan_target=1)
    system.run(until=3.0)
    primary.crash()
    system.run_for(10.0)
    assert standby.active
    primary.restart()
    system.run_for(15.0)
    assert not standby.active
    assert standby.demotions == 1


def test_two_standbys_only_one_promotes(fast_cfg):
    system = _single_lan(fast_cfg)
    primary = system.registries[0]
    s1 = system.add_standby_registry("lan-0", lan_target=1)
    s2 = system.add_standby_registry("lan-0", lan_target=1)
    system.run(until=3.0)
    primary.crash()
    system.run_for(15.0)
    assert sum(1 for s in (s1, s2) if s.active) == 1


def test_standby_crash_resets_to_dormant(fast_cfg):
    system = _single_lan(fast_cfg)
    primary = system.registries[0]
    standby = system.add_standby_registry("lan-0", lan_target=1)
    system.run(until=3.0)
    primary.crash()
    system.run_for(10.0)
    assert standby.active
    standby.crash()
    primary.restart()
    standby.restart()
    system.run_for(10.0)
    assert not standby.active  # quota met by the primary again


# -- mediation ----------------------------------------------------------------------

@pytest.fixture
def mediation_system():
    system = DiscoverySystem(seed=35, ontology=emergency_ontology())
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    system.add_service("lan-0", ServiceProfile.build(
        "damage-fr", "ems:AlertingService", outputs=["ems:DamageReport"]))
    system.add_service("lan-0", ServiceProfile.build(
        "report-translator", "ems:TranslationService",
        inputs=["ems:DamageReport"], outputs=["ems:CasualtyReport"]))
    client = system.add_client("lan-0")
    system.run(until=2.0)
    return system, client


NEED = ServiceRequest.build(None, outputs=["ems:CasualtyReport"],
                            inputs=["ems:IncidentLocation"])


def test_mediation_builds_two_step_plan(mediation_system):
    system, client = mediation_system
    planner = MediationPlanner(system,
                               translator_category="ems:TranslationService")
    outcome = planner.discover(client, NEED)
    assert outcome.direct_hits == []
    assert [p.describe() for p in outcome.plans] == \
        ["damage-fr -> report-translator"]
    assert outcome.satisfied
    assert outcome.extra_queries == 2


def test_mediation_prefers_direct_hits(mediation_system):
    system, client = mediation_system
    system.add_service("lan-0", ServiceProfile.build(
        "native-casualty", "ems:CasualtyTrackingService",
        outputs=["ems:CasualtyReport"]))
    system.run_for(1.0)
    planner = MediationPlanner(system,
                               translator_category="ems:TranslationService")
    outcome = planner.discover(client, NEED)
    assert [h.advertisement.service_name for h in outcome.direct_hits] == \
        ["native-casualty"]
    assert outcome.plans == []
    assert outcome.extra_queries == 0


def test_mediation_without_translators_fails_gracefully():
    system = DiscoverySystem(seed=36, ontology=emergency_ontology())
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    system.add_service("lan-0", ServiceProfile.build(
        "damage-fr", "ems:AlertingService", outputs=["ems:DamageReport"]))
    client = system.add_client("lan-0")
    system.run(until=2.0)
    planner = MediationPlanner(system,
                               translator_category="ems:TranslationService")
    outcome = planner.discover(client, NEED)
    assert not outcome.satisfied
    assert outcome.extra_queries == 1  # the translator lookup


def test_mediation_plan_limit(mediation_system):
    system, client = mediation_system
    for i in range(4):
        system.add_service("lan-0", ServiceProfile.build(
            f"extra-damage-{i}", "ems:AlertingService",
            outputs=["ems:DamageReport"]))
    system.run_for(1.0)
    planner = MediationPlanner(system,
                               translator_category="ems:TranslationService")
    outcome = planner.discover(client, NEED, max_plans=2)
    assert len(outcome.plans) == 2


# -- mobility (roaming between LANs) --------------------------------------------

def test_service_roaming_migrates_advertisements(fast_cfg):
    system = DiscoverySystem(seed=41, ontology=battlefield_ontology(),
                             config=fast_cfg)
    system.add_lan("lan-a")
    system.add_lan("lan-b")
    ra = system.add_registry("lan-a")
    rb = system.add_registry("lan-b")
    system.federate_chain()
    service = system.add_service("lan-a", _radar("mobile"))
    system.run(until=3.0)
    assert len(ra.store.by_service(service.node_id)) == 3
    system.move(service, "lan-b")
    system.run_for(10.0)
    assert service.lan_name == "lan-b"
    assert service.tracker.current == rb.node_id
    assert len(rb.store.by_service(service.node_id)) == 3
    assert len(ra.store.by_service(service.node_id)) == 0  # leases lapsed


def test_client_roaming_reattaches_locally(fast_cfg):
    system = DiscoverySystem(seed=42, ontology=battlefield_ontology(),
                             config=fast_cfg)
    system.add_lan("lan-a")
    system.add_lan("lan-b")
    system.add_registry("lan-a")
    rb = system.add_registry("lan-b")
    system.federate_chain()
    system.add_service("lan-b", _radar("local-to-b"))
    client = system.add_client("lan-a")
    system.run(until=3.0)
    assert client.tracker.current == "registry-00"
    system.move(client, "lan-b")
    system.run_for(3.0)
    assert client.tracker.current == rb.node_id
    call = system.discover(client, REQUEST, timeout=30.0)
    assert call.service_names() == ["local-to-b"]


def test_roaming_client_watch_reestablished(fast_cfg):
    system = DiscoverySystem(seed=43, ontology=battlefield_ontology(),
                             config=fast_cfg)
    system.add_lan("lan-a")
    system.add_lan("lan-b")
    system.add_registry("lan-a")
    system.add_registry("lan-b")
    client = system.add_client("lan-a")
    system.run(until=3.0)
    watch = client.watch(REQUEST)
    system.run_for(1.0)
    system.move(client, "lan-b")
    system.run_for(3.0)
    system.add_service("lan-b", _radar("b-radar"))
    system.run_for(3.0)
    assert "b-radar" in watch.service_names()


def test_move_to_same_lan_is_noop(fast_cfg):
    system = DiscoverySystem(seed=44, ontology=battlefield_ontology(),
                             config=fast_cfg)
    system.add_lan("lan-a")
    system.add_registry("lan-a")
    client = system.add_client("lan-a")
    system.run(until=2.0)
    attached = client.tracker.current
    system.move(client, "lan-a")
    assert client.tracker.current == attached  # on_moved never fired


def test_move_to_unknown_lan_rejected(fast_cfg):
    from repro.errors import NetworkError

    system = DiscoverySystem(seed=45, ontology=battlefield_ontology(),
                             config=fast_cfg)
    system.add_lan("lan-a")
    client = system.add_client("lan-a")
    with pytest.raises(NetworkError):
        system.move(client, "lan-zzz")


@pytest.mark.parametrize("role", ["client", "service"])
def test_node_that_roams_mid_probe_probes_its_new_lan(role):
    """A move while the start-up probe was in flight left "a probe is in
    flight" set: the probe of the new LAN returned early and the old window
    closed on the emptied cache. With beacons off nothing attached the node
    again — a client never, a service only at its next renew tick."""
    system = DiscoverySystem(seed=47, ontology=battlefield_ontology(),
                             config=DiscoveryConfig(beacon_interval=None))
    system.add_lan("lan-a")
    system.add_lan("lan-b")
    system.add_registry("lan-a")
    rb = system.add_registry("lan-b")
    node = system.add_client("lan-a") if role == "client" else \
        system.add_service("lan-a", _radar("mobile"))
    system.run(until=0.1)
    system.move(node, "lan-b")
    system.run_for(3.0)
    assert node.tracker.current == rb.node_id
    if role == "service":
        assert len(rb.store.by_service(node.node_id)) == 3


# -- multi-hop composition ----------------------------------------------------------

def test_two_hop_translator_chain():
    system = DiscoverySystem(seed=46, ontology=emergency_ontology())
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    system.add_service("lan-0", ServiceProfile.build(
        "damage-fr", "ems:AlertingService", outputs=["ems:DamageReport"]))
    system.add_service("lan-0", ServiceProfile.build(
        "t1", "ems:TranslationService",
        inputs=["ems:DamageReport"], outputs=["ems:CasualtyReport"]))
    system.add_service("lan-0", ServiceProfile.build(
        "t2", "ems:TranslationService",
        inputs=["ems:CasualtyReport"], outputs=["ems:EvacuationAlert"]))
    client = system.add_client("lan-0")
    system.run(until=2.0)
    planner = MediationPlanner(system,
                               translator_category="ems:TranslationService")
    need = ServiceRequest.build(None, outputs=["ems:EvacuationAlert"],
                                inputs=["ems:IncidentLocation"])
    deep = planner.discover(client, need, max_depth=2)
    assert [p.describe() for p in deep.plans] == ["damage-fr -> t1 -> t2"]
    assert deep.plans[0].depth == 2
    assert deep.plans[0].translator.advertisement.service_name == "t2"
    shallow = planner.discover(client, need, max_depth=1)
    assert not shallow.satisfied


def test_chain_never_reuses_a_translator():
    system = DiscoverySystem(seed=47, ontology=emergency_ontology())
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    # A translator loop: A->B and B->A, but no producer anywhere.
    system.add_service("lan-0", ServiceProfile.build(
        "t-ab", "ems:TranslationService",
        inputs=["ems:DamageReport"], outputs=["ems:CasualtyReport"]))
    system.add_service("lan-0", ServiceProfile.build(
        "t-ba", "ems:TranslationService",
        inputs=["ems:CasualtyReport"], outputs=["ems:DamageReport"]))
    client = system.add_client("lan-0")
    system.run(until=2.0)
    planner = MediationPlanner(system,
                               translator_category="ems:TranslationService")
    need = ServiceRequest.build(None, outputs=["ems:CasualtyReport"],
                                inputs=["ems:IncidentLocation"])
    outcome = planner.discover(client, need, max_depth=4)
    assert not outcome.satisfied  # terminates without looping
    assert outcome.plans == []


def test_shorter_plans_ranked_first():
    system = DiscoverySystem(seed=48, ontology=emergency_ontology())
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    # Direct bridge AND a two-hop detour to the same goal.
    system.add_service("lan-0", ServiceProfile.build(
        "producer-a", "ems:AlertingService", outputs=["ems:DamageReport"]))
    system.add_service("lan-0", ServiceProfile.build(
        "producer-b", "ems:WeatherService", outputs=["ems:WeatherReport"]))
    system.add_service("lan-0", ServiceProfile.build(
        "t-direct", "ems:TranslationService",
        inputs=["ems:DamageReport"], outputs=["ems:EvacuationAlert"]))
    system.add_service("lan-0", ServiceProfile.build(
        "t-hop1", "ems:TranslationService",
        inputs=["ems:WeatherReport"], outputs=["ems:HazmatReport"]))
    system.add_service("lan-0", ServiceProfile.build(
        "t-hop2", "ems:TranslationService",
        inputs=["ems:HazmatReport"], outputs=["ems:EvacuationAlert"]))
    client = system.add_client("lan-0")
    system.run(until=2.0)
    planner = MediationPlanner(system,
                               translator_category="ems:TranslationService")
    need = ServiceRequest.build(None, outputs=["ems:EvacuationAlert"],
                                inputs=["ems:IncidentLocation"])
    outcome = planner.discover(client, need, max_depth=2)
    assert outcome.plans[0].describe() == "producer-a -> t-direct"
    assert outcome.plans[0].depth == 1


# -- registry capacity (asymmetric resources): counted in services ---------------

def test_capacity_nack_sheds_to_other_registry(fast_cfg):
    system = DiscoverySystem(seed=49, ontology=battlefield_ontology(),
                             config=fast_cfg)
    system.add_lan("lan-0")
    small = system.add_registry("lan-0", capacity=1)
    big = system.add_registry("lan-0")
    services = [
        system.add_service("lan-0", _radar(f"radar-{i}")) for i in range(4)
    ]
    client = system.add_client("lan-0")
    system.run(until=20.0)
    assert len(small.store) <= 3
    assert len(big.store) >= 9
    call = system.discover(client, ServiceRequest.build("ncw:RadarService"),
                           timeout=30.0)
    assert sorted(call.service_names()) == [f"radar-{i}" for i in range(4)]
    # At least one service was pushed off the small registry.
    assert any(s.tracker.excluded for s in services)


def test_capacity_allows_republish_of_existing_ad(fast_cfg):
    system = DiscoverySystem(seed=50, ontology=battlefield_ontology(),
                             config=fast_cfg)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0", capacity=1)
    service = system.add_service("lan-0", _radar())
    system.run(until=3.0)
    assert len(registry.store) == 3  # one service's three ads: at capacity
    service.update_profile(_radar())  # republish must NOT be NACKed
    system.run_for(2.0)
    assert len(registry.store) == 3
    assert all(ad.version == 2 for ad in registry.store.all())
    assert service.tracker.current == registry.node_id


def test_refused_service_is_not_locked_out_across_its_own_restart():
    """``RegistryTracker.excluded`` is volatile state: a service that was
    refused once (registry full) and later restarts must be able to
    attach to that registry again — it used to stay excluded for life,
    a live service and an empty registry on one LAN that never met."""
    system = DiscoverySystem(seed=1, ontology=battlefield_ontology(),
                             config=DiscoveryConfig(lease_duration=10.0))
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0", capacity=1)
    first, second = (system.add_service("lan-0", _radar(f"radar-{i}"))
                     for i in range(2))
    system.run(until=5.0)
    (winner,) = [s for s in (first, second) if not s.tracker.excluded]
    (loser,) = [s for s in (first, second) if s.tracker.excluded]
    assert list(loser.tracker.excluded) == [registry.node_id]
    winner.crash()
    system.run(until=41.0)
    # The winner's leases lapsed, and the loser's exclusion lapsed with
    # them: it is published there without a restart.
    assert [ad.service_name for ad in registry.store.all()] == [loser.profile.service_name] * 3
    loser.crash()
    loser.restart()
    system.run(until=80.0)
    assert loser.tracker.current == registry.node_id
    assert loser.tracker.excluded == {}
    assert len(registry.store) == 3


class _HoldPublishes:
    """An interceptor keeping every PUBLISH a registry receives, undelivered."""

    def __init__(self):
        self.held = []

    def intercept(self, envelope):
        if envelope.msg_type == protocol.PUBLISH:
            self.held.append(envelope)
            return True
        return False


def _deliver_interleaved(registry, held, services):
    """Hand ``registry`` the held publishes of two services as one of the
    first's, two of the second's, then the rest of each: the order in
    which a per-advertisement count split a registry of room three."""
    first, second = ([e for e in held if e.src == s.node_id] for s in services)
    for envelope in first[:1] + second[:2] + first[1:] + second[2:]:
        registry.receive(envelope)


def _full_registry_of_one(lease):
    system = DiscoverySystem(seed=1, ontology=battlefield_ontology(),
                             config=DiscoveryConfig(lease_duration=lease))
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0", capacity=1)
    holder = _HoldPublishes()
    registry.interceptor = holder
    services = [system.add_service("lan-0", _radar(f"radar-{i}")) for i in range(2)]
    system.run(until=0.8)
    assert len(holder.held) == 6
    return system, registry, holder, services


def test_capacity_never_splits_two_services():
    """Capacity counts services: when two services' first publishes
    arrive interleaved, the registry takes every ad of the service it
    admitted first and refuses only the other, which alone excludes it."""
    system, registry, holder, services = _full_registry_of_one(lease=10.0)
    registry.interceptor = None
    _deliver_interleaved(registry, holder.held, services)
    system.run_for(0.5)
    assert {ad.service_name for ad in registry.store.all()} == {"radar-0"}
    assert len(registry.store) == 3
    assert [bool(s.tracker.excluded) for s in services] == [False, True]
    assert services[0].tracker.current == registry.node_id


def test_republishes_at_the_lapse_leave_one_service_stored_for_good():
    """The republishes that follow the refusal are held until the refused
    service's exclusion has lapsed, then delivered in the same interleaved
    order. One service is fully stored afterwards and stays so at every
    sample; counted in advertisements, the same order split the registry
    and then both services re-published, and were split, together at
    every lapse."""
    lease = 10.0
    system, registry, holder, services = _full_registry_of_one(lease)
    _deliver_interleaved(registry, holder.held, services)
    holder.held.clear()
    system.run_for(lease + 2 * registry.config.purge_interval)
    assert holder.held  # the refused service re-published at the lapse
    registry.interceptor = None
    _deliver_interleaved(registry, holder.held, services)
    names = {s.profile.service_name for s in services}
    for _ in range(40):
        system.run_for(2.5)
        stored = [ad.service_name for ad in registry.store.all()]
        assert len(stored) == 3 and set(stored) < names and len(set(stored)) == 1


def test_node_that_crashed_mid_probe_probes_again_after_restart(fast_cfg):
    """A crash cancels the timer that ends a probe; the restart must not
    inherit "a probe is in flight" or the node never probes — nor attaches
    on a beacon — again."""
    system = DiscoverySystem(seed=52, ontology=battlefield_ontology(),
                             config=fast_cfg)
    system.add_lan("lan-0")
    service = system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=3.0)
    for node in (service, client):
        node.tracker.probe()  # no registry yet: the probe is in flight ...
        node.crash()          # ... when the node dies
    registry = system.add_registry("lan-0")
    for node in (service, client):
        node.restart()
    system.run_for(3.0)
    assert service.tracker.current == client.tracker.current == registry.node_id
    assert len(registry.store) == 3


def test_capacity_bounds_replication_too(fast_cfg):
    from repro.core.config import COOPERATION_REPLICATE_ADS

    cfg = DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        beacon_interval=1.0, lease_duration=5.0, purge_interval=1.0,
    )
    system = DiscoverySystem(seed=51, ontology=battlefield_ontology(),
                             config=cfg)
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    home = system.add_registry("lan-0")
    tiny = system.add_registry("lan-1", capacity=2)
    system.federate_chain()
    for i in range(3):
        system.add_service("lan-0", _radar(f"radar-{i}"))
    system.run(until=5.0)
    assert len(home.store) == 9
    # Replicas are admitted per service too: two whole services, no part.
    assert len({ad.service_node for ad in tiny.store.all()}) == 2
    assert len(tiny.store) == 6


# -- E16 mobility experiment shape --------------------------------------------------

def test_e16_shape_small():
    from repro.experiments.e16_mobility import run

    result = run(move_intervals=(None, 15.0), n_queries=6)
    static = result.rows[0]
    roaming = result.rows[1]
    assert static["moves"] == 0
    assert roaming["moves"] > 0
    assert roaming["recall"] >= 0.8
