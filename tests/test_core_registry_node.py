"""Tests for the registry node: publish/renew/remove/purge/query/replicate."""

from __future__ import annotations

import pytest

from repro.core import protocol
from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.errors import ReproError
from repro.netsim.node import Node
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest
from tests.deployments import e7_ring


class Probe(Node):
    """A bare node capturing everything sent to it."""

    def __init__(self, node_id="probe"):
        super().__init__(node_id)
        self.inbox = []

    def handle_message(self, envelope):
        self.inbox.append(envelope)

    def receive(self, envelope):  # capture typed messages too
        if self.alive:
            self.inbox.append(envelope)

    def of_type(self, msg_type):
        return [e for e in self.inbox if e.msg_type == msg_type]


def _setup(**config):
    ontology = battlefield_ontology()
    system = DiscoverySystem(
        seed=11, ontology=ontology,
        config=DiscoveryConfig(**{"lease_duration": 10.0, "purge_interval": 1.0,
                                  "beacon_interval": None, **config}),
    )
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    probe = Probe()
    system.network.add_node(probe, "lan-0")
    system.run(until=0.5)
    return system, registry, probe


@pytest.fixture
def setup():
    return _setup()


def _uri_description(type_uri="ncw:RadarService", name="radar-1"):
    from repro.descriptions.uri import UriDescription

    return UriDescription(type_uri=type_uri, endpoint=f"svc://{name}",
                          service_name=name)


def _publish(probe, registry, *, ad_id="", name="radar-1", model_id="uri",
             description=None):
    if description is None:
        description = _uri_description(name=name)
    probe.send(
        registry.node_id,
        protocol.PUBLISH,
        protocol.PublishPayload(
            service_node=probe.node_id,
            service_name=name,
            endpoint=f"svc://{name}",
            model_id=model_id,
            description=description,
            ad_id=ad_id,
        ),
    )


def test_publish_stores_and_acks_with_lease(setup):
    system, registry, probe = setup
    _publish(probe, registry)
    system.run_for(0.5)
    acks = probe.of_type(protocol.PUBLISH_ACK)
    assert len(acks) == 1
    ack = acks[0].payload
    assert ack.lease_id
    assert ack.model_id == "uri"
    assert len(registry.store) == 1
    assert registry.rim.publishes == 1


def test_republish_with_ad_id_bumps_version(setup):
    system, registry, probe = setup
    _publish(probe, registry)
    system.run_for(0.5)
    ad_id = probe.of_type(protocol.PUBLISH_ACK)[0].payload.ad_id
    updated = _uri_description(type_uri="ncw:SensorService")
    _publish(probe, registry, ad_id=ad_id, description=updated)
    system.run_for(0.5)
    ad = registry.store.get(ad_id)
    assert ad.version == 2
    assert ad.description == updated
    assert len(registry.store) == 1


def test_unsupported_model_publish_discarded(setup):
    system, registry, probe = setup
    _publish(probe, registry, model_id="wsml")
    system.run_for(0.5)
    assert probe.of_type(protocol.PUBLISH_ACK) == []
    assert len(registry.store) == 0
    assert registry.models.discarded_payloads == 1


def test_lease_expiry_purges_advertisement(setup):
    system, registry, probe = setup
    _publish(probe, registry)
    system.run_for(0.5)
    assert len(registry.store) == 1
    system.run_for(12.0)  # lease 10s, no renewals
    assert len(registry.store) == 0
    assert registry.rim.removals == 1


def test_renew_keeps_advertisement_alive(setup):
    system, registry, probe = setup
    _publish(probe, registry)
    system.run_for(0.5)
    ack = probe.of_type(protocol.PUBLISH_ACK)[0].payload
    for _ in range(4):
        system.run_for(4.0)
        probe.send(registry.node_id, protocol.RENEW,
                   protocol.RenewPayload(lease_id=ack.lease_id, ad_id=ack.ad_id))
    system.run_for(1.0)
    assert len(registry.store) == 1
    assert probe.of_type(protocol.RENEW_ACK)


def test_no_publish_that_can_be_built_outlives_its_lease(setup):
    """§4.8 rests on every lease lapsing. Whatever duration a publisher
    asks for, either the request cannot be built or the advertisement is
    gone 3 x its lease after the last word from the service — ``nan`` and
    ``inf`` used to be granted and kept for good, ``-5.0`` and ``"soon"``
    to raise out of the publish handler."""
    system, registry, probe = setup
    sent = []
    for i, asked in enumerate((None, 2.0, 7.5, 30, float("nan"), float("inf"),
                               -5.0, 0, "soon")):
        try:
            payload = protocol.PublishPayload(
                service_node=probe.node_id, service_name=f"radar-{i}",
                endpoint="svc://x", model_id="uri", description=_uri_description(),
                lease_duration=asked)
        except ReproError:  # a ProtocolError
            continue
        sent.append(asked)
        probe.send(registry.node_id, protocol.PUBLISH, payload)
    system.run_for(0.5)
    assert sent == [None, 2.0, 7.5, 30]
    granted = [e.payload.lease_duration for e in probe.of_type(protocol.PUBLISH_ACK)]
    assert granted == [10.0, 2.0, 7.5, 30] and len(registry.store) == 4
    system.run_for(3 * max(granted))
    assert len(registry.store) == 0 and len(registry.leases) == 0


def test_renew_unknown_lease_nacked(setup):
    system, registry, probe = setup
    probe.send(registry.node_id, protocol.RENEW,
               protocol.RenewPayload(lease_id="lease-bogus", ad_id="ad-bogus"))
    system.run_for(0.5)
    assert probe.of_type(protocol.RENEW_NACK)


def test_remove_deletes_and_acks(setup):
    system, registry, probe = setup
    _publish(probe, registry)
    system.run_for(0.5)
    ad_id = probe.of_type(protocol.PUBLISH_ACK)[0].payload.ad_id
    probe.send(registry.node_id, protocol.REMOVE,
               protocol.RemovePayload(ad_id=ad_id))
    system.run_for(0.5)
    assert len(registry.store) == 0
    assert probe.of_type(protocol.REMOVE_ACK)


def test_query_returns_ranked_hits(setup):
    system, registry, probe = setup
    _publish(probe, registry, name="radar-1")
    system.run_for(0.5)
    from repro.descriptions.uri import UriQuery

    probe.send(
        registry.node_id,
        protocol.QUERY,
        protocol.QueryPayload(query_id="q1", model_id="uri",
                              query=UriQuery("ncw:RadarService")),
    )
    system.run_for(0.5)
    responses = probe.of_type(protocol.QUERY_RESPONSE)
    assert len(responses) == 1
    hits = responses[0].payload.hits
    assert [h.advertisement.service_name for h in hits] == ["radar-1"]


MODELS = ("semantic", "template", "uri")


def _good_payloads(registry, model_id):
    """A matching (description, query) pair rendered by the registry's own model."""
    model = registry.models.get(model_id)
    profile = ServiceProfile.build("radar-1", "ncw:RadarService", outputs=["ncw:AirTrack"])
    request = ServiceRequest.build("ncw:RadarService", outputs=["ncw:AirTrack"])
    return model.describe(profile, "svc://radar-1"), model.query_from(request)


def _foreign(registry, model_id):
    """The same pair rendered by another model: well-formed on the wire,
    but not the record ``model_id`` declares."""
    return _good_payloads(registry, MODELS[(MODELS.index(model_id) + 1) % len(MODELS)])


def _holdings(registry):
    """What a refused record must leave alone: the stored records, and the
    postings of every model's index."""
    store = registry.store
    indexes = [store.index_for(m) for m in registry.models.model_ids()]
    return store.all(), [
        sorted((table_id, key, bytes(posting)) for table_id, table in enumerate(index._tables)
               for key, posting in table.items())
        for index in indexes if index is not None
    ]


def _query(probe, registry, query_id, model_id, query):
    probe.send(registry.node_id, protocol.QUERY,
               protocol.QueryPayload(query_id=query_id, model_id=model_id,
                                     query=query, max_results=3))


def test_malformed_semantic_publish_does_not_kill_later_queries(setup):
    """A ``semantic`` PUBLISH carrying another model's record is refused at
    the model gate: counted once, never stored, and the next QUERY is
    answered (a junk description used to raise out of the query handler)."""
    system, registry, probe = setup
    good = ServiceProfile.build("radar-1", "ncw:RadarService",
                                outputs=["ncw:AirTrack"])
    _publish(probe, registry, name="radar-1", model_id="semantic",
             description=good)
    _publish(probe, registry, name="junk", model_id="semantic",
             description=_uri_description(name="junk"))
    system.run_for(0.5)
    assert len(registry.store) == 1
    assert len(probe.of_type(protocol.PUBLISH_ACK)) == 1
    probe.send(
        registry.node_id,
        protocol.QUERY,
        protocol.QueryPayload(query_id="q-after-junk", model_id="semantic",
                              query=ServiceRequest.build("ncw:SensorService"),
                              max_results=3),
    )
    system.run_for(0.5)
    responses = probe.of_type(protocol.QUERY_RESPONSE)
    assert len(responses) == 1
    hits = responses[0].payload.hits
    assert [h.advertisement.service_name for h in hits] == ["radar-1"]
    assert registry.models.get("semantic").malformed_payloads == 1
    assert registry.models.discarded_payloads == 0


@pytest.mark.parametrize("junk", ("description", "query",
                                  "description-informed", "query-informed"))
@pytest.mark.parametrize("model_id", MODELS)
def test_malformed_payload_is_not_a_query_of_death(model_id, junk):
    """For every model: a PUBLISH or QUERY carrying another model's record
    is refused at the gate, counted once, and changes neither the store nor
    the index; the next QUERY is answered from the good record. Under the
    ``informed`` strategy the query is also read for index terms by the plan
    (not counted again), and every beacon rebuilds the summary."""
    junk, _, informed = junk.partition("-")
    system, registry, probe = _setup(
        strategy="informed", beacon_interval=1.0) if informed else _setup()
    description, query = _good_payloads(registry, model_id)
    foreign_description, foreign_query = _foreign(registry, model_id)
    _publish(probe, registry, name="radar-1", model_id=model_id, description=description)
    system.run_for(0.5)
    held = _holdings(registry)
    if junk == "description":
        _publish(probe, registry, name="junk", model_id=model_id,
                 description=foreign_description)
    else:
        _query(probe, registry, "q-junk", model_id, foreign_query)
    system.run_for(3.0 if informed else 0.5)  # informed: three beacons
    assert _holdings(registry) == held
    _query(probe, registry, "q-good", model_id, query)
    system.run_for(0.5)
    by_id = {e.payload.query_id: e.payload.hits
             for e in probe.of_type(protocol.QUERY_RESPONSE)}
    assert [h.advertisement.service_name for h in by_id["q-good"]] == ["radar-1"]
    if junk == "query":
        assert by_id["q-junk"] == ()
    if informed:
        assert len(probe.of_type(protocol.REGISTRY_BEACON)) >= 3
    assert registry.models.get(model_id).malformed_payloads == 1


@pytest.mark.parametrize("model_id", MODELS)
def test_a_malformed_query_is_counted_where_it_is_parsed(model_id):
    """The count does not depend on the store: a QUERY carrying another
    model's record is counted once against an empty store, where no
    candidate is ever scored."""
    system, registry, probe = _setup()
    assert len(registry.store) == 0
    _query(probe, registry, "q-junk", model_id, _foreign(registry, model_id)[1])
    system.run_for(0.5)
    assert [e.payload.hits for e in probe.of_type(protocol.QUERY_RESPONSE)] == [()]
    assert registry.models.get(model_id).malformed_payloads == 1


@pytest.mark.parametrize("model_id, forwards", (("uri", 0), ("wsdl", 4)))
def test_a_refused_malformed_query_is_not_forwarded(model_id, forwards):
    """On the E7 ring (three registries, ttl=2 floods): another model's record
    under a supported id is refused where it enters and goes no further, while
    a model no registry here supports is still forwarded, since a neighbor
    might support it."""
    system = e7_ring().system
    registry = system.registries[0]
    probe = Probe()
    system.network.add_node(probe, registry.lan_name)
    registries = system.registries

    def totals():
        return (sum(r.rim.queries_forwarded for r in registries),
                sum(r.models.get("uri").malformed_payloads for r in registries))

    forwarded, malformed = totals()
    probe.send(registry.node_id, protocol.QUERY, protocol.QueryPayload(
        query_id="q-junk", model_id=model_id, ttl=2,
        query=ServiceRequest.build("ncw:RadarService", outputs=["ncw:AirTrack"])))
    system.run_for(5.0)
    assert [e.payload.hits for e in probe.of_type(protocol.QUERY_RESPONSE)] == [()]
    assert totals() == (forwarded + forwards, malformed + (model_id == "uri"))


def _query_message(msg_type, query_id, model_id, query):
    if msg_type == protocol.WALK:
        return protocol.WalkPayload(query_id=query_id, model_id=model_id, query=query,
                                    coordinator="probe", remaining=1, max_results=3)
    return protocol.QueryPayload(query_id=query_id, model_id=model_id, query=query,
                                 max_results=3)


@pytest.mark.parametrize("msg_type", (protocol.QUERY, protocol.QUERY_FORWARD,
                                      protocol.WALK))
@pytest.mark.parametrize("model_id", MODELS)
def test_each_query_entry_refuses_another_models_query(model_id, msg_type):
    """A client query, a peer's forward and a random walk all reach local
    evaluation through the gate: another model's query is counted once, not
    once per stored candidate, and leaves the store and index alone; the
    next good one is answered."""
    system, registry, probe = _setup()
    description, query = _good_payloads(registry, model_id)
    for name in ("radar-1", "radar-2"):
        _publish(probe, registry, name=name, model_id=model_id, description=description)
    system.run_for(0.5)
    held = _holdings(registry)
    probe.send(registry.node_id, msg_type,
               _query_message(msg_type, "q-junk", model_id, _foreign(registry, model_id)[1]))
    system.run_for(0.5)
    assert registry.models.get(model_id).malformed_payloads == 1
    assert _holdings(registry) == held
    probe.send(registry.node_id, msg_type, _query_message(msg_type, "q-good", model_id, query))
    system.run_for(0.5)
    answers = protocol.WALK_HITS if msg_type == protocol.WALK else protocol.QUERY_RESPONSE
    hits = {e.payload.query_id: e.payload.hits for e in probe.of_type(answers)}
    assert sorted(h.advertisement.service_name for h in hits["q-good"]) \
        == ["radar-1", "radar-2"]
    assert hits.get("q-junk", ()) == ()
    assert registry.models.get(model_id).malformed_payloads == 1


def _replica(ad_id, model_id, description):
    from repro.registry.advertisements import Advertisement

    return protocol.AdForwardPayload(
        advertisement=Advertisement(ad_id=ad_id, service_node="svc", service_name=ad_id,
                                    endpoint=f"svc://{ad_id}", model_id=model_id,
                                    description=description),
        lease_duration=30.0)


#: Every peer path into ``WriteCoordinator.absorb_replica``: its message,
#: whether the registry shards, and how the path wraps one replica.
PEER_PATHS = {
    protocol.AD_FORWARD: (False, lambda entry: entry),
    protocol.ANTIENTROPY_ADS: (False, lambda entry: protocol.SyncAdsPayload(ads=(entry,))),
    protocol.SHARD_STORE: (True, lambda entry: protocol.ShardStorePayload(
        request_id="", entry=entry)),
    protocol.SHARD_TRANSFER: (True, lambda entry: protocol.SyncAdsPayload(ads=(entry,))),
}


@pytest.mark.parametrize("msg_type", sorted(PEER_PATHS))
@pytest.mark.parametrize("model_id", MODELS)
def test_each_peer_path_refuses_another_models_replica(model_id, msg_type):
    from repro.core.sharding import ShardingConfig

    sharded, wrap = PEER_PATHS[msg_type]
    system, registry, probe = _setup(
        cooperation=COOPERATION_REPLICATE_ADS,
        sharding=ShardingConfig(enabled=sharded))
    description, _ = _good_payloads(registry, model_id)
    held = _holdings(registry)
    probe.send(registry.node_id, msg_type,
               wrap(_replica("ad-junk", model_id, _foreign(registry, model_id)[0])))
    system.run_for(0.5)
    assert registry.models.get(model_id).malformed_payloads == 1
    assert registry.models.discarded_payloads == 0
    assert _holdings(registry) == held
    probe.send(registry.node_id, msg_type, wrap(_replica("ad-good", model_id, description)))
    system.run_for(0.5)
    assert [ad.ad_id for ad in registry.store.all()] == ["ad-good"]
    assert registry.models.get(model_id).malformed_payloads == 1


@pytest.mark.parametrize("model_id", MODELS)
def test_malformed_subscription_does_not_kill_the_next_publish(setup, model_id):
    system, registry, probe = setup
    description, query = _good_payloads(registry, model_id)
    held = _holdings(registry)
    for sub_id, sub_query in (("sub-junk", _foreign(registry, model_id)[1]),
                              ("sub-good", query)):
        probe.send(registry.node_id, protocol.SUBSCRIBE,
                   protocol.SubscribePayload(sub_id=sub_id, model_id=model_id,
                                             query=sub_query, duration=30.0))
    system.run_for(0.5)
    assert _holdings(registry) == held
    assert [e.payload.sub_id for e in probe.of_type(protocol.SUBSCRIBE_ACK)] == ["sub-good"]
    _publish(probe, registry, name="radar-1", model_id=model_id, description=description)
    system.run_for(0.5)
    assert probe.of_type(protocol.PUBLISH_ACK)
    assert [e.payload.sub_id for e in probe.of_type(protocol.NOTIFY)] == ["sub-good"]
    assert registry.models.get(model_id).malformed_payloads == 1


@pytest.mark.parametrize("model_id", MODELS)
def test_malformed_decentral_query_is_ignored_by_services(setup, model_id):
    """Registry-less fallback: every service evaluates a multicast query itself."""
    system, registry, probe = setup
    profile = ServiceProfile.build("radar-1", "ncw:RadarService", outputs=["ncw:AirTrack"])
    service = system.add_service("lan-0", profile)
    system.run_for(0.5)
    _, query = _good_payloads(registry, model_id)
    for query_id, decentral in (("d-junk", _foreign(registry, model_id)[1]), ("d-good", query)):
        probe.multicast(protocol.DECENTRAL_QUERY,
                        protocol.QueryPayload(query_id=query_id, model_id=model_id,
                                              query=decentral))
    system.run_for(0.5)
    assert [e.payload.query_id for e in probe.of_type(protocol.DECENTRAL_RESPONSE)
            if e.src == service.node_id] == ["d-good"]
    assert service.models.get(model_id).malformed_payloads == 1


def test_duplicate_query_from_client_ignored(setup):
    system, registry, probe = setup
    from repro.descriptions.uri import UriQuery

    payload = protocol.QueryPayload(query_id="q-dup", model_id="uri",
                                    query=UriQuery("x"))
    probe.send(registry.node_id, protocol.QUERY, payload)
    probe.send(registry.node_id, protocol.QUERY, payload)
    system.run_for(0.5)
    assert len(probe.of_type(protocol.QUERY_RESPONSE)) == 1


def test_probe_reply_describes_registry(setup):
    system, registry, probe = setup
    probe.multicast(protocol.REGISTRY_PROBE)
    system.run_for(0.5)
    replies = probe.of_type(protocol.REGISTRY_PROBE_REPLY)
    assert len(replies) == 1
    desc = replies[0].payload
    assert desc.registry_id == registry.node_id
    assert "semantic" in desc.supported_models
    assert "battlefield" in desc.artifact_names


def test_artifact_request_served_and_missing(setup):
    system, registry, probe = setup
    probe.send(registry.node_id, protocol.ARTIFACT_REQUEST,
               protocol.ArtifactRequestPayload(artifact_name="battlefield"))
    probe.send(registry.node_id, protocol.ARTIFACT_REQUEST,
               protocol.ArtifactRequestPayload(artifact_name="nonexistent"))
    system.run_for(0.5)
    replies = probe.of_type(protocol.ARTIFACT_REPLY)
    assert len(replies) == 2
    by_name = {r.payload.artifact_name: r.payload for r in replies}
    assert by_name["battlefield"].artifact is not None
    assert by_name["nonexistent"].artifact is None
    assert registry.repository.requests_served == 1
    assert registry.repository.requests_missed == 1


def test_registry_crash_loses_soft_state_and_restart_rebootstraps(setup):
    system, registry, probe = setup
    _publish(probe, registry)
    system.run_for(0.5)
    assert len(registry.store) == 1
    registry.crash()
    registry.restart()
    assert len(registry.store) == 0
    assert len(registry.federation.neighbors) == 0


def test_replication_pushes_to_neighbors():
    ontology = battlefield_ontology()
    system = DiscoverySystem(
        seed=12, ontology=ontology,
        config=DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS,
                               default_ttl=0),
    )
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    ra = system.add_registry("lan-0")
    rb = system.add_registry("lan-1")
    system.federate(ra, rb)
    profile = ServiceProfile.build("radar", "ncw:RadarService",
                                   outputs=["ncw:AirTrack"])
    system.add_service("lan-0", profile)
    system.run(until=3.0)
    assert len(rb.store) == len(ra.store) > 0


def test_replication_late_joiner_catches_up():
    ontology = battlefield_ontology()
    system = DiscoverySystem(
        seed=13, ontology=ontology,
        config=DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS,
                               default_ttl=0),
    )
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    ra = system.add_registry("lan-0")
    profile = ServiceProfile.build("radar", "ncw:RadarService",
                                   outputs=["ncw:AirTrack"])
    system.add_service("lan-0", profile)
    system.run(until=3.0)
    rb = system.add_registry("lan-1")
    system.federate(ra, rb)
    system.run_for(2.0)
    assert len(rb.store) == len(ra.store) > 0


def test_replication_dedup_keys_stay_bounded():
    # Every renew refreshes the replicas under a new epoch, i.e. a new
    # dedup key per advertisement per renew interval at every registry;
    # keys more than two lease durations old go with the lease purge.
    config = DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS,
                             default_ttl=0, lease_duration=5.0,
                             purge_interval=1.0)
    system = DiscoverySystem(seed=14, ontology=battlefield_ontology(),
                             config=config)
    registries = []
    for i in range(3):
        system.add_lan(f"lan-{i}")
        registries.append(system.add_registry(f"lan-{i}"))
        system.add_service(f"lan-{i}", ServiceProfile.build(
            f"radar-{i}", "ncw:RadarService", outputs=["ncw:AirTrack"]))
    system.federate_ring()
    system.run(until=40 * config.renew_interval)
    epochs_kept = 2 / config.renew_fraction + 2
    for registry in registries:
        live = len(registry.store)
        assert live == 9  # 3 services x 3 description models, replicated
        assert 0 < len(registry.writes.mode.seen_pushes) <= epochs_kept * live


def test_decentral_query_answered_by_registry(setup):
    system, registry, probe = setup
    ontology = battlefield_ontology()
    profile = ServiceProfile.build("radar", "ncw:RadarService",
                                   outputs=["ncw:AirTrack"])
    system.add_service("lan-0", profile)
    system.run_for(1.0)
    model = registry.models.get("semantic")
    query = model.query_from(ServiceRequest.build("ncw:SensorService"))
    probe.multicast(
        protocol.DECENTRAL_QUERY,
        protocol.QueryPayload(query_id="dq", model_id="semantic", query=query),
    )
    system.run_for(0.5)
    responses = probe.of_type(protocol.DECENTRAL_RESPONSE)
    # Registry answers from its store; the service node answers for itself.
    assert len(responses) >= 2
