"""Tests for the UDDI, WS-Discovery, and cluster baselines."""

from __future__ import annotations

import pytest

from repro.baselines.cluster import build_cluster_system, cluster_config
from repro.baselines.uddi import UddiSystem, build_uddi_system, uddi_config
from repro.baselines.wsdiscovery import (
    build_wsdiscovery_system,
    wsdiscovery_config,
)
from repro.core.durability import DurabilityConfig
from repro.semantics.generator import emergency_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest

REQUEST = ServiceRequest.build("ems:MedicalService", outputs=["ems:Location"])


def _ambulance(name="ambu"):
    return ServiceProfile.build(name, "ems:AmbulanceDispatchService",
                                outputs=["ems:UnitLocation"])


# -- UDDI ---------------------------------------------------------------------

def test_uddi_config_shape():
    config = uddi_config()
    assert not config.leasing_enabled
    assert config.beacon_interval is None
    assert not config.fallback_enabled


def test_uddi_basic_discovery():
    system = build_uddi_system(seed=1, ontology=emergency_ontology(),
                               lans=("lan-0", "lan-1"))
    system.add_service("lan-1", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.service_names() == ["ambu"]


def test_uddi_single_registry_enforced():
    system = build_uddi_system(seed=1, ontology=emergency_ontology())
    with pytest.raises(ValueError):
        system.add_registry("lan-0")


def test_uddi_requires_registry_before_clients():
    system = UddiSystem(seed=1, ontology=emergency_ontology())
    system.add_lan("lan-0")
    with pytest.raises(ValueError):
        system.add_client("lan-0")


def test_uddi_ignores_probes():
    """No dynamic registry discovery: probes go unanswered."""
    system = build_uddi_system(seed=1, ontology=emergency_ontology())
    system.run(until=2.0)
    from repro.core import protocol

    assert system.traffic()["messages_sent"] == 0 or \
        system.network.stats.by_type_count[protocol.REGISTRY_PROBE_REPLY] == 0


def test_uddi_stale_ads_after_service_crash():
    """The paper's core criticism: no aliveness information."""
    system = build_uddi_system(seed=1, ontology=emergency_ontology())
    service = system.add_service("lan-0", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    service.crash()
    system.run_for(300.0)
    call = system.discover(client, REQUEST)
    assert call.service_names() == ["ambu"]  # stale hit for a dead service


def test_uddi_explicit_deregistration_works():
    system = build_uddi_system(seed=1, ontology=emergency_ontology())
    service = system.add_service("lan-0", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    service.deregister()
    system.run_for(1.0)
    call = system.discover(client, REQUEST)
    assert call.hits == []


def test_uddi_registry_crash_kills_discovery():
    system = build_uddi_system(seed=1, ontology=emergency_ontology())
    system.add_service("lan-0", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    system.registry.crash()
    call = system.discover(client, REQUEST, timeout=60.0)
    assert call.completed
    assert call.hits == []  # no fallback in UDDI deployments


def test_durable_uddi_registry_starts_its_components():
    """The baseline shares the kernel's start-up: a durable UDDI registry
    arms its snapshot timer like any other (it used to log every write
    and never snapshot)."""
    system = UddiSystem(seed=1, ontology=emergency_ontology(), config=uddi_config(
        durability=DurabilityConfig(enabled=True, snapshot_interval=5.0)))
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    for i in range(3):
        system.add_service("lan-0", _ambulance(f"ambu-{i}"))
    system.run(until=30.0)
    assert registry.durability.wal_appends == 9  # 3 services x 3 models
    assert registry.durability.snapshots > 0
    assert len(registry._periodics) == 1  # still no beacon, purge or ping round


# -- WS-Discovery ----------------------------------------------------------------

def test_wsd_adhoc_discovery_no_registries():
    system = build_wsdiscovery_system(seed=2, ontology=emergency_ontology())
    system.add_service("lan-0", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.via == "fallback"
    assert call.service_names() == ["ambu"]
    assert system.registries == []


def test_wsd_adhoc_always_fresh():
    system = build_wsdiscovery_system(seed=2, ontology=emergency_ontology())
    service = system.add_service("lan-0", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    service.crash()
    call = system.discover(client, REQUEST)
    assert call.hits == []  # dead services simply do not answer


def test_wsd_managed_uses_proxy():
    system = build_wsdiscovery_system(seed=2, ontology=emergency_ontology(),
                                      managed=True)
    system.add_service("lan-0", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.via.startswith("registry:wsd-proxy")
    assert call.service_names() == ["ambu"]


def test_wsd_proxy_has_no_leasing_so_goes_stale():
    system = build_wsdiscovery_system(seed=2, ontology=emergency_ontology(),
                                      managed=True)
    service = system.add_service("lan-0", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    service.crash()
    system.run_for(300.0)
    call = system.discover(client, REQUEST)
    assert call.service_names() == ["ambu"]  # the documented shortcoming


def test_wsd_response_implosion_grows_with_providers():
    system = build_wsdiscovery_system(seed=2, ontology=emergency_ontology())
    for i in range(8):
        system.add_service("lan-0", _ambulance(f"ambu-{i}"))
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.responses == 8  # one response message per provider


# -- cluster ------------------------------------------------------------------------

def test_cluster_replicates_to_all_members():
    system = build_cluster_system(seed=3, ontology=emergency_ontology(),
                                  lans=("lan-0", "lan-1", "lan-2"))
    system.add_service("lan-0", _ambulance())
    system.run(until=3.0)
    sizes = [len(r.store) for r in system.members()]
    assert len(set(sizes)) == 1
    assert sizes[0] > 0


def test_cluster_answers_locally_with_ttl_zero():
    system = build_cluster_system(seed=3, ontology=emergency_ontology(),
                                  lans=("lan-0", "lan-1"))
    system.add_service("lan-1", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=3.0)
    before = system.network.stats.by_type_count.get("query-forward", 0)
    call = system.discover(client, REQUEST)
    after = system.network.stats.by_type_count.get("query-forward", 0)
    assert call.service_names() == ["ambu"]
    assert after == before  # no forwarding: the local replica answered


def test_cluster_survives_member_failure():
    system = build_cluster_system(seed=3, ontology=emergency_ontology(),
                                  lans=("lan-0", "lan-1"))
    system.add_service("lan-1", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=3.0)
    # Kill the member the service published to; the replica answers.
    victim = [r for r in system.members() if r.lan_name == "lan-1"][0]
    victim.crash()
    system.run_for(1.0)
    call = system.discover(client, REQUEST, timeout=30.0)
    assert call.service_names() == ["ambu"]


def test_cluster_replicas_expire_when_home_dies():
    """Replica leases stop being refreshed once the home registry is gone."""
    config = cluster_config(lease_duration=5.0, purge_interval=1.0)
    from repro.baselines.cluster import ClusterSystem

    system = ClusterSystem(seed=3, ontology=emergency_ontology(), config=config)
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    home = system.add_registry("lan-0")
    replica = system.add_registry("lan-1")
    system.finalize_cluster()
    service = system.add_service("lan-0", _ambulance())
    system.run(until=3.0)
    assert len(replica.store) > 0
    home.crash()
    service.crash()  # and the service, so nothing republishes
    system.run_for(15.0)
    assert len(replica.store) == 0
