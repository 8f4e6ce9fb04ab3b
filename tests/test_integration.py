"""End-to-end integration tests: full scenarios on the simulator."""

from __future__ import annotations

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.metrics.retrieval import score_queries
from repro.netsim.faults import FaultPlan
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest
from repro.workloads.queries import QueryDriver, QueryWorkload
from repro.workloads.scenarios import battlefield_scenario, build_scenario, crisis_scenario


def test_crisis_scenario_end_to_end():
    """The paper's §1 motivating scenario, front to back."""
    built = build_scenario(crisis_scenario(agencies=3, services_per_lan=3,
                                           seed=1))
    workload = QueryWorkload.anchored(built.generator, built.profiles, 8,
                                      generalize=1)
    driver = QueryDriver(built.system, workload, interval=0.5, seed=1)
    issued = driver.play(settle=3.0, drain=15.0)
    scores = score_queries(issued)
    assert scores.queries == 8
    assert scores.recall == 1.0
    assert scores.precision == 1.0


def test_battlefield_scenario_all_models():
    built = build_scenario(battlefield_scenario(units=2, services_per_lan=3,
                                                seed=2))
    built.system.run(until=3.0)
    client = built.clients[0]
    anchor = built.profiles[-1]  # a remote-unit service
    for model_id in ("uri", "template", "semantic"):
        request = built.generator.request_for(anchor, generalize=0)
        call = built.system.discover(client, request, model_id=model_id)
        assert call.completed
        assert anchor.service_name in call.service_names()


def test_churn_with_leasing_keeps_responses_fresh():
    config = DiscoveryConfig(lease_duration=5.0, purge_interval=1.0)
    built = build_scenario(crisis_scenario(agencies=2, services_per_lan=4,
                                           seed=3), config=config)
    system = built.system
    system.run(until=3.0)
    FaultPlan.churn(
        [s.node_id for s in system.services], rate=0.5, window=30.0, seed=3,
        start=system.sim.now,
    ).apply(system)
    system.run_for(30.0)
    system.run_for(12.0)  # two lease durations drain the stale entries
    dead = {s.profile.service_name for s in system.services if not s.alive}
    assert dead  # churn actually happened
    for registry in built.registries:
        for ad in registry.store.all():
            assert ad.service_name not in dead


def test_partition_and_heal():
    """A WAN split isolates remote services; healing restores them."""
    config = DiscoveryConfig(aggregation_timeout=0.3, query_timeout=3.0,
                             ping_interval=30.0, signalling_interval=None)
    system = DiscoverySystem(seed=4, ontology=battlefield_ontology(),
                             config=config)
    for i in range(2):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
    system.federate_chain()
    remote = ServiceProfile.build("remote-radar", "ncw:RadarService",
                                  outputs=["ncw:AirTrack"])
    system.add_service("lan-1", remote)
    client = system.add_client("lan-0")
    system.run(until=3.0)
    request = ServiceRequest.build("ncw:SensorService")

    call = system.discover(client, request)
    assert call.service_names() == ["remote-radar"]

    system.network.partition([["lan-0"], ["lan-1"]])
    call2 = system.discover(client, request, timeout=30.0)
    assert call2.completed
    assert call2.service_names() == []

    system.network.heal_partition()
    call3 = system.discover(client, request, timeout=30.0)
    assert call3.service_names() == ["remote-radar"]


def test_registry_crash_mid_renewal_recovers():
    """Failure injection: crash the registry exactly between a service's
    renewals; the service must republish after the restart."""
    config = DiscoveryConfig(lease_duration=4.0, purge_interval=0.5,
                             beacon_interval=1.0)
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    profile = ServiceProfile.build("radar", "ncw:RadarService",
                                   outputs=["ncw:AirTrack"])
    system.add_service("lan-0", profile)
    system.run(until=2.0)
    registry.crash()
    system.run_for(1.0)
    registry.restart()
    system.run_for(10.0)  # renewal NACK (or re-probe) forces republish
    assert len(registry.store) == 3


def test_two_registries_per_lan_load_balance_and_failover():
    config = DiscoveryConfig(beacon_interval=1.0, query_timeout=2.0,
                             aggregation_timeout=0.3,
                             lease_duration=5.0, purge_interval=1.0)
    system = DiscoverySystem(seed=6, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    r1 = system.add_registry("lan-0")
    r2 = system.add_registry("lan-0")
    profiles = [
        ServiceProfile.build(f"radar-{i}", "ncw:RadarService",
                             outputs=["ncw:AirTrack"])
        for i in range(6)
    ]
    for profile in profiles:
        system.add_service("lan-0", profile)
    clients = [system.add_client("lan-0") for _ in range(4)]
    system.run(until=3.0)
    # Services spread over both registries (hash-based balancing).
    assert len(r1.store) > 0 and len(r2.store) > 0
    # Same-LAN registries federated: any client sees all services.
    request = ServiceRequest.build("ncw:RadarService")
    call = system.discover(clients[0], request)
    assert len(call.hits) == 6
    # Kill one registry: queries still see everything after failover,
    # because its services republish to the survivor.
    r2.crash()
    system.run_for(30.0)
    call2 = system.discover(clients[0], request, timeout=30.0)
    assert len(call2.hits) == 6


def test_wan_scale_scenario_smoke():
    """A bigger deployment exercising all the moving parts together."""
    built = build_scenario(battlefield_scenario(
        units=5, services_per_lan=4, clients_per_lan=2, seed=7,
        federation="ring",
    ))
    workload = QueryWorkload.anchored(built.generator, built.profiles, 12,
                                      generalize=1, max_results=5)
    driver = QueryDriver(built.system, workload, interval=0.4, seed=7)
    issued = driver.play(settle=5.0, drain=20.0)
    completed = [q for q in issued if q.call.completed]
    assert len(completed) == 12
    assert all(len(q.call.hits) <= 5 for q in completed)
    scores = score_queries(issued)
    assert scores.recall > 0.9


def test_federation_reforms_after_partition_heals():
    """Seeded WAN links must re-form once a partition heals — seeds are
    durable configuration, retried every maintenance round."""
    config = DiscoveryConfig(ping_interval=2.0, ping_failure_threshold=2,
                             signalling_interval=4.0, aggregation_timeout=0.3)
    system = DiscoverySystem(seed=71, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-a")
    system.add_lan("lan-b")
    ra = system.add_registry("lan-a")
    rb = system.add_registry("lan-b")
    system.federate_chain()
    system.add_service("lan-b", ServiceProfile.build(
        "radar", "ncw:RadarService", outputs=["ncw:AirTrack"]))
    client = system.add_client("lan-a")
    system.run(until=5.0)

    system.network.partition([["lan-a"], ["lan-b"]])
    system.run_for(30.0)
    assert rb.node_id not in ra.federation.neighbors  # detector fired

    system.network.heal_partition()
    system.run_for(10.0)
    assert rb.node_id in ra.federation.neighbors
    assert ra.node_id in rb.federation.neighbors
    call = system.discover(client, ServiceRequest.build("ncw:SensorService"),
                           timeout=30.0)
    assert call.service_names() == ["radar"]
