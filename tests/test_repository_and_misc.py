"""Tests for the artifact repository, lossy-network behaviour, and other
previously thin spots."""

from __future__ import annotations

import pytest

from repro.core import protocol
from repro.core.config import DiscoveryConfig
from repro.core.registry_node import RegistryNode
from repro.core.system import DiscoverySystem
from repro.descriptions.uri import UriDescription
from repro.semantics.generator import battlefield_ontology
from repro.semantics.ontology import Ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest


# -- ArtifactRepository -----------------------------------------------------

def _repository():
    """A registry's artifact repository, the registry unattached."""
    return RegistryNode("registry-00", DiscoveryConfig(), []).repository


def _ontology(name: str, classes: int = 1) -> Ontology:
    """A small named ontology: the artifact a repository hosts."""
    ontology = Ontology(name)
    for i in range(classes):
        ontology.add_class(f"{name}:C{i}")
    return ontology


def test_repository_store_fetch_counters():
    repo = _repository()
    ont = _ontology("ont")
    repo.store("ont", ont)
    assert "ont" in repo
    assert len(repo) == 1
    assert repo.fetch("ont") is ont
    assert repo.fetch("missing") is None
    assert repo.requests_served == 1
    assert repo.requests_missed == 1


def test_repository_replace_and_names():
    repo = _repository()
    first, second, third = _ontology("b"), _ontology("a"), _ontology("b", 2)
    repo.store("b", first)
    repo.store("a", second)
    repo.store("b", third)
    assert repo.names() == ["a", "b"]
    assert repo.fetch("b") is third


def test_repository_total_bytes_and_clear():
    repo = _repository()
    big = _ontology("big", 100)
    repo.store("big", big)
    assert repo.total_bytes() == big.size_bytes() >= 5000
    repo.rebuild()
    assert len(repo) == 0
    assert repo.total_bytes() == 0


def test_repository_hosts_ontologies():
    repo = _repository()
    ont = battlefield_ontology()
    repo.store(ont.name, ont)
    assert repo.total_bytes() == ont.size_bytes()


# -- subscription payload sizes -------------------------------------------------

def test_subscription_payload_sizes():
    sub = protocol.SubscribePayload(sub_id="sub-1", model_id="semantic",
                                    query=ServiceRequest.build(keywords=["q" * 100]),
                                    duration=30.0)
    assert sub.size_bytes() > 100
    ack = protocol.SubscribeAck(sub_id="sub-1", expires_at=99.0)
    assert ack.size_bytes() > 0
    unsub = protocol.UnsubscribePayload(sub_id="sub-1")
    assert unsub.size_bytes() > 0


# -- lossy wireless networks -------------------------------------------------------

def test_discovery_robust_to_moderate_loss():
    """The architecture's retries/renewals must survive a lossy LAN."""
    config = DiscoveryConfig(
        beacon_interval=1.0, lease_duration=5.0, purge_interval=1.0,
        query_timeout=1.5, fallback_timeout=0.5, aggregation_timeout=0.3,
    )
    system = DiscoverySystem(seed=77, ontology=battlefield_ontology(),
                             config=config, loss_rate=0.15)
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    system.add_service("lan-0", ServiceProfile.build(
        "radar", "ncw:RadarService", outputs=["ncw:AirTrack"]))
    client = system.add_client("lan-0")
    system.run(until=10.0)
    request = ServiceRequest.build("ncw:SensorService")
    found = 0
    for _ in range(10):
        call = system.discover(client, request, timeout=30.0)
        if "radar" in call.service_names():
            found += 1
        system.run_for(1.0)
    # Retries, beacons, and renewals absorb 15% loss almost completely.
    assert found >= 8
    assert system.network.stats.messages_dropped > 0


def test_lost_publish_recovered_by_ack_timeout():
    """Deterministic injection: the first publish burst is dropped; the
    service's publish-unacked detector must republish."""
    config = DiscoveryConfig(
        beacon_interval=1.0, lease_duration=4.0, purge_interval=0.5,
    )
    system = DiscoverySystem(seed=78, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    service = system.add_service("lan-0", ServiceProfile.build(
        "radar", "ncw:RadarService", outputs=["ncw:AirTrack"]))
    # Drop everything the service sends for the first 2 simulated seconds.
    original_unicast = system.network.unicast

    def lossy_unicast(envelope):
        if envelope.src == service.node_id and system.sim.now < 2.0:
            system.network.stats.record_send(
                envelope.msg_type, envelope.src, 0, wan=False, multicast=False
            )
            system.network.stats.record_drop()
            return
        original_unicast(envelope)

    system.network.unicast = lossy_unicast
    system.run(until=1.0)
    assert len(registry.store) == 0  # initial publishes eaten
    system.run_for(10.0)
    assert len(registry.store) == 3  # ack-timeout failover republished


# -- Watch dataclass ------------------------------------------------------------------

def test_watch_service_names_order():
    from repro.core.client_node import Watch
    from repro.registry.advertisements import Advertisement
    from repro.registry.matching import QueryHit

    watch = Watch(sub_id="s", request=ServiceRequest.build("c"),
                  model_id="uri", created_at=0.0)
    for name in ("b", "a"):
        watch.hits.append(QueryHit(
            Advertisement(ad_id=name, service_node=name, service_name=name,
                          endpoint="e", model_id="uri",
                          description=UriDescription("d", "e")),
            1, 0.5,
        ))
    assert watch.service_names() == ["b", "a"]  # arrival order, not sorted


# -- extension experiment shapes (small params) -----------------------------------------

def test_e13_shape_small():
    from repro.experiments.e13_notifications import run

    result = run(n_arrivals=3, spacing=8.0, poll_periods=(4.0,))
    push = result.single(mode="subscribe")
    poll = result.single(mode="poll@4s")
    assert push["detected"] == 3
    assert push["mean_detection_s"] < poll["mean_detection_s"]


def test_e14_shape_small():
    from repro.experiments.e14_mediation import run

    result = run()
    assert result.single(mode="plain")["satisfied"] == 0
    assert result.single(mode="mediated")["satisfied"] == 3


def test_e15_shape_small():
    from repro.experiments.e15_standby import run

    result = run(n_queries=15, outage_at=5.0, restart_at=60.0)
    yes = result.single(standby="yes")
    no = result.single(standby="no")
    assert yes["registry_mode_frac"] > no["registry_mode_frac"]
    assert yes["promotions"] == 1


def test_ablation_sweeps_small():
    from repro.experiments.ablations import (
        beacon_interval_sweep,
        compression_sweep,
        lease_duration_sweep,
        ttl_sweep,
    )

    lease = lease_duration_sweep(durations=(5.0, 40.0), n_services=4,
                                 window=60.0)
    rates = lease.column("renew_bytes_per_s")
    assert rates[0] > rates[1]

    beacon = beacon_interval_sweep(intervals=(1.0, 8.0))
    lat = beacon.column("reattach_latency")
    assert lat[0] < lat[1]

    ttl = ttl_sweep(lans=3, ttls=(0, 2), n_queries=4)
    assert ttl.column("recall")[0] <= ttl.column("recall")[1]

    zipped = compression_sweep(ratios=(1.0, 0.25), n_services=3)
    publish = zipped.column("publish_msg_bytes")
    assert publish[0] > publish[1]
