"""Tests for service and client node behaviour."""

from __future__ import annotations

import pytest

from repro.core import protocol
from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.registry.matching import QueryEvaluator
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest


@pytest.fixture
def fast():
    return DiscoveryConfig(
        beacon_interval=1.0,
        lease_duration=4.0,
        purge_interval=0.5,
        query_timeout=2.0,
        aggregation_timeout=0.3,
        signalling_interval=2.0,
    )


def _system(fast, *, lans=1, registries=True, seed=21):
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=fast)
    for i in range(lans):
        system.add_lan(f"lan-{i}")
        if registries:
            system.add_registry(f"lan-{i}")
    return system


def _radar(name="radar-1"):
    return ServiceProfile.build(name, "ncw:AirSurveillanceRadarService",
                                outputs=["ncw:AirTrack"],
                                qos={"latency_ms": 40.0})


REQUEST = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


# -- service node -----------------------------------------------------------

def test_service_publishes_under_all_its_models(fast):
    system = _system(fast)
    service = system.add_service("lan-0", _radar())
    system.run(until=2.0)
    registry = system.registries[0]
    assert len(registry.store) == 3  # uri + template + semantic
    assert all(rec.acked for rec in service._published.values())


def test_service_renews_and_survives_lease_horizon(fast):
    system = _system(fast)
    system.add_service("lan-0", _radar())
    system.run(until=20.0)  # 5 lease durations
    assert len(system.registries[0].store) == 3


def test_crashed_service_ads_are_purged(fast):
    system = _system(fast)
    service = system.add_service("lan-0", _radar())
    system.run(until=2.0)
    service.crash()
    system.run_for(6.0)  # > lease duration
    assert len(system.registries[0].store) == 0


def test_deregister_removes_immediately(fast):
    system = _system(fast)
    service = system.add_service("lan-0", _radar())
    system.run(until=2.0)
    service.deregister()
    system.run_for(0.5)
    assert len(system.registries[0].store) == 0


def test_update_profile_republishes_new_content(fast):
    system = _system(fast)
    service = system.add_service("lan-0", _radar())
    system.run(until=2.0)
    updated = ServiceProfile.build("radar-1", "ncw:AirSurveillanceRadarService",
                                   outputs=["ncw:AirTrack"],
                                   qos={"latency_ms": 10.0})
    service.update_profile(updated)
    system.run_for(0.5)
    registry = system.registries[0]
    semantic_ads = registry.store.of_model("semantic")
    assert len(semantic_ads) == 1
    assert semantic_ads[0].description.qos_value("latency_ms") == 10.0
    assert semantic_ads[0].version == 2


def test_service_restart_republishes(fast):
    system = _system(fast)
    service = system.add_service("lan-0", _radar())
    system.run(until=2.0)
    service.crash()
    system.run_for(6.0)
    assert len(system.registries[0].store) == 0
    service.restart()
    system.run_for(2.0)
    assert len(system.registries[0].store) == 3


def test_service_fails_over_to_surviving_registry(fast):
    system = _system(fast, lans=2)
    system.federate_chain()
    service = system.add_service("lan-0", _radar())
    system.run(until=5.0)  # signalling primes the alternatives cache
    first = service.tracker.current
    system.network.node(first).crash()
    system.run_for(15.0)
    assert service.tracker.current is not None
    assert service.tracker.current != first
    survivor = system.network.node(service.tracker.current)
    assert len(survivor.store.by_service(service.node_id)) == 3


# -- the publish/renew resend chain --------------------------------------------

def _answered(service, record, kind):
    if kind == protocol.RENEW:
        record.renew_outstanding = False
    else:
        record.acked = True


def _rehomed(service, record, kind):
    record.registry = "registry-elsewhere"


def _lease_superseded(service, record, kind):
    record.lease_id = "lease-newer"


def _attachment_changed(service, record, kind):
    service.tracker.current = "registry-elsewhere"


def _armed_resend(fast, kind, hint):
    """A quiet service with one unanswered ``kind`` and one resend armed."""
    system = _system(fast)
    service = system.add_service("lan-0", _radar())
    system.run(until=2.0)
    service.cancel_tasks()  # no renew tick, no chain left over from start-up
    record = service._published["semantic"]
    assert record.acked and record.lease_id
    if kind == protocol.RENEW:
        record.renew_outstanding = True
    else:
        record.acked = False
    sent = []
    send = service.send
    service.send = lambda dst, msg_type, *a, **k: (
        sent.append(msg_type), send(dst, msg_type, *a, **k))[1]
    service._resend_unless_answered(
        kind, record, service.tracker.current, hint=hint)
    return system, service, record, sent


def _retry_counters(system, service):
    return (service.publish_retries, service.renew_retries,
            dict(system.network.stats.retries))


@pytest.mark.parametrize("hint", [None, 0.3], ids=["policy", "busy-hint"])
@pytest.mark.parametrize("kind", [protocol.PUBLISH, protocol.RENEW])
@pytest.mark.parametrize("outcome", [
    _answered, _rehomed, _lease_superseded, _attachment_changed,
], ids=lambda f: f.__name__.strip("_"))
def test_resend_stands_down(fast, kind, outcome, hint):
    system, service, record, sent = _armed_resend(fast, kind, hint)
    before = _retry_counters(system, service)
    outcome(service, record, kind)
    system.run_for(10.0)
    assert sent == []
    assert _retry_counters(system, service) == before


@pytest.mark.parametrize("kind", [protocol.PUBLISH, protocol.RENEW])
def test_resend_fires_while_unanswered(fast, kind):
    # The control for the table above: nothing intervenes, so the BUSY
    # hint resends once and the registry's answer settles the record.
    system, service, record, sent = _armed_resend(fast, kind, 0.3)
    system.run_for(1.0)
    assert sent == [kind]
    assert not record.awaiting(kind)
    assert system.network.stats.retries[kind] == 1
    assert (service.publish_retries, service.renew_retries) == (
        (1, 0) if kind == protocol.PUBLISH else (0, 1))


def test_service_answers_decentral_queries_directly(fast):
    system = _system(fast, registries=False)
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.via == "fallback"
    assert call.service_names() == ["radar-1"]


# -- client node --------------------------------------------------------------

def test_client_discovers_via_registry(fast):
    system = _system(fast)
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.completed
    assert call.via.startswith("registry:")
    assert call.service_names() == ["radar-1"]
    assert call.endpoints() == ["svc://svc-node-000"]
    assert call.latency > 0.0


def test_client_ranked_hits_best_first(fast):
    system = _system(fast)
    system.add_service("lan-0", ServiceProfile.build(
        "exact", "ncw:SensorService", outputs=["ncw:Track"]))
    system.add_service("lan-0", _radar("narrow"))
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.service_names()[0] == "exact"


def test_client_response_control_cap(fast):
    system = _system(fast)
    for i in range(6):
        system.add_service("lan-0", _radar(f"radar-{i}"))
    client = system.add_client("lan-0")
    system.run(until=2.0)
    capped = ServiceRequest.build("ncw:SensorService", max_results=2)
    call = system.discover(client, capped)
    assert len(call.hits) == 2
    assert call.responses == 1


def test_client_times_out_and_falls_back(fast):
    system = _system(fast)
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    system.registries[0].crash()
    call = system.discover(client, REQUEST, timeout=30.0)
    assert call.completed
    assert call.via == "fallback"
    assert call.service_names() == ["radar-1"]
    assert call.attempts == 2


def test_client_failed_when_fallback_disabled():
    config = DiscoveryConfig(fallback_enabled=False, query_timeout=1.0,
                             beacon_interval=None)
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST, timeout=10.0)
    assert call.completed
    assert call.via == "failed"
    assert call.hits == []


def test_client_reattaches_via_beacons_after_registry_restart(fast):
    system = _system(fast)
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    registry = system.registries[0]
    registry.crash()
    call = system.discover(client, REQUEST, timeout=30.0)  # drops to fallback
    assert call.via == "fallback"
    registry.restart()
    system.run_for(8.0)  # beacons + service republish
    call2 = system.discover(client, REQUEST, timeout=30.0)
    assert call2.via.startswith("registry:")
    assert call2.service_names() == ["radar-1"]


def test_client_fetch_artifact_attaches_ontology(fast):
    system = _system(fast)
    client = system.add_client("lan-0", with_ontology=False)
    system.run(until=2.0)
    semantic = client.models.get("semantic")
    assert not semantic.can_evaluate()
    client.fetch_artifact("battlefield")
    system.run_for(1.0)
    assert semantic.can_evaluate()
    assert semantic.matchmaker is system.matchmaker
    assert "battlefield" in client.artifacts_fetched


def test_an_evaluating_client_keeps_its_matchmaker_when_the_ontology_arrives(fast):
    """A fetched artifact is offered only to models that cannot evaluate
    yet: a client that can keeps its warm, shared matchmaker — even when
    the registry hosts the ontology as another object."""
    system = _system(fast)
    system.registries[0].repository.store("battlefield", battlefield_ontology())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    semantic = client.models.get("semantic")
    matchmaker = semantic.matchmaker
    client.fetch_artifact("battlefield")
    system.run_for(1.0)
    assert "battlefield" in client.artifacts_fetched
    assert semantic.matchmaker is matchmaker is system.matchmaker


def test_thin_client_relies_on_registry_side_matching(fast):
    system = _system(fast)
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0", with_ontology=False)
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.service_names() == ["radar-1"]


def test_discovery_call_bookkeeping(fast):
    system = _system(fast)
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.succeeded
    assert call.responders >= 1
    assert call.response_bytes > 0
    assert (client.calls_issued, call.seq) == (1, 0)


# -- wire-id bookkeeping and retry counters ---------------------------------

def test_wire_id_map_drains_on_registry_path(fast):
    system = _system(fast)
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.via.startswith("registry:")
    assert client._by_wire_id == {}
    assert call.completions == 1


def test_wire_id_map_drains_on_fallback_path(fast):
    system = _system(fast)
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    system.registries[0].crash()
    call = system.discover(client, REQUEST, timeout=30.0)
    assert call.via == "fallback"
    assert client._by_wire_id == {}
    assert call.completions == 1


def _fallback_lan_with_tapped_client(fast):
    """Six responders, no registry; ``seen`` collects every reply the
    client is handed, before the client sees it."""
    system = _system(fast, registries=False)
    for i in range(6):
        system.add_service("lan-0", _radar(f"radar-{i}"))
    client = system.add_client("lan-0")
    seen = []
    handle = client.handlers[protocol.DECENTRAL_RESPONSE]
    client.handlers[protocol.DECENTRAL_RESPONSE] = \
        lambda envelope: (seen.append(envelope), handle(envelope))
    system.run(until=2.0)
    return system, client, seen


def test_completed_fallback_call_lets_go_of_its_responders_batches(fast):
    system, client, seen = _fallback_lan_with_tapped_client(fast)
    capped = ServiceRequest.build("ncw:SensorService", max_results=2)
    call = system.discover(client, capped)
    assert call.via == "fallback" and len(seen) == 6
    assert call.hits == QueryEvaluator.merge(
        [list(envelope.payload.hits) for envelope in seen], max_results=2)
    assert len(call.hits) == 2
    assert (call.responses, call.responders) == (6, 6)
    assert call.response_bytes == sum(envelope.size_bytes for envelope in seen)
    assert call._fallback_batches == []


def test_fallback_call_failed_by_a_crash_lets_go_of_its_batches(fast):
    system, client, seen = _fallback_lan_with_tapped_client(fast)
    call = client.discover(REQUEST)
    system.run_for(fast.fallback_timeout / 2)
    assert len(seen) == 6 and len(call._fallback_batches) == 6
    assert not call.completed
    client.crash()
    assert call.completed and call.via == "crashed" and call.hits == []
    assert (call.responses, call.responders) == (6, 6)
    assert call._fallback_batches == []


def test_wire_id_map_empty_when_call_fails_immediately():
    config = DiscoveryConfig(fallback_enabled=False, query_timeout=1.0,
                             beacon_interval=None)
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST, timeout=10.0)
    assert call.via == "failed"
    # A call that never went on the wire must not leave a wire-id entry.
    assert client._by_wire_id == {}


def test_client_crash_completes_in_flight_calls_and_drains_map(fast):
    system = _system(fast)
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = client.discover(REQUEST)  # query on the wire, awaiting a response
    assert not call.completed
    assert client._by_wire_id
    client.crash()
    assert call.completed
    assert call.via == "crashed"
    assert client._by_wire_id == {}


def test_query_retry_counters_match_network_stats(fast):
    system = _system(fast)
    system.add_registry("lan-0")  # second registry on the LAN
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    system.network.node(client.tracker.current).crash()
    call = system.discover(client, REQUEST, timeout=30.0)
    # The timed-out attempt fails over and retries at the survivor.
    assert call.via.startswith("registry:")
    assert call.attempts == 2
    assert client.query_retries == 1
    assert system.network.stats.retries.get("query", 0) == 1
    assert client._by_wire_id == {}
