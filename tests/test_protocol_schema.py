"""One declaration per message (``repro.records``, ``core/protocol.py``).

Four table-driven parts: (i) the derived ``size_bytes()`` returns the
bytes the hand-written methods returned; (ii) a payload that is not the
record its message type declares is dropped and counted where envelopes
enter, for every type on every role; (iii) a record with a field of the
wrong kind cannot be constructed; (iv) every table keyed by message type
names declared types only.
"""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path
from types import UnionType
from typing import Annotated, Any, Union, get_args, get_origin, get_type_hints

import pytest

import repro
from repro.core import protocol as p
from repro.core.admission import MESSAGE_CLASS, AdmissionPolicy, request_id_of
from repro.core.config import COOPERATION_REPLICATE_ADS, DiscoveryConfig
from repro.core.durability import FENCED_MSG_TYPES
from repro.core.sharding import ShardingConfig
from repro.core.system import DiscoverySystem, make_models
from repro.descriptions import Description, Query
from repro.descriptions.template import TemplateDescription, TemplateQuery, tokenize
from repro.descriptions.uri import UriDescription, UriQuery
from repro.netsim.messages import Envelope
from repro.netsim.node import Node
from repro.registry.advertisements import Advertisement
from repro.registry.matching import QueryHit
from repro.registry.rim import RegistryDescription
from repro.semantics.generator import battlefield_ontology
from repro.semantics.ontology import Ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest
from repro.workloads.scenarios import ARCHITECTURES

try:  # part (i) was recorded on the parent commit, which has none of these
    from repro.core.protocol import MESSAGE_RECORDS
    from repro.errors import ProtocolError
    from repro.records import Seconds
except ImportError:
    MESSAGE_RECORDS, ProtocolError, Seconds = {}, Exception, None

SRC = Path(repro.__file__).parent
NAN, INF = math.nan, math.inf

# -- (i) golden sizes -------------------------------------------------------------

PEER = "probe"  # the node the samples name wherever a handler answers somebody
AD = Advertisement(
    ad_id="ad-000001", service_node="svc-node-001", service_name="radar-1",
    endpoint="svc://radar-1", model_id="uri",
    description=UriDescription("ncw:RadarService", "svc://radar-1", "radar-1"),
    version=2, published_at=1.5, home_registry="registry-000")
HIT = QueryHit(AD, 3, 0.75)
DESC = RegistryDescription(
    registry_id="registry-000", lan_name="lan-0", supported_models=("semantic", "uri"),
    advertisement_count=4, neighbor_count=2, artifact_names=("battlefield",),
    summary_terms=("ncw:RadarService", "ncw:AirTrack"), issued_at=12.5,
    ring_id="registry-000")
FORWARD = p.AdForwardPayload(advertisement=AD, lease_duration=30.0, epoch=4)
QUERY = UriQuery("ncw:RadarService")

#: One representative instance per record — every sequence non-empty, every
#: optional both ways — against the byte count its hand-written
#: ``size_bytes()`` returned on the commit before the declarations (b0a5568).
#: Three rows carried a non-record in a description, query or artifact slot
#: and were re-derived when those slots were typed by the models' records:
#: "publish-first" (a string, 94 B), "query-uncapped" (a string, 54 B) and
#: "artifact-reply" (a dict, 82 B).
GOLDEN = {
    "publish": (p.PublishPayload(
        service_node="svc-node-001", service_name="radar-1", endpoint="svc://radar-1",
        model_id="uri", description=AD.description, ad_id="ad-000001",
        lease_duration=45.0), 104),
    "publish-first": (p.PublishPayload(
        service_node="svc-node-001", service_name="radar-1", endpoint="svc://radar-1",
        model_id="template", description=TemplateDescription(
            "radar-1", "ncw:RadarService", tokenize("ncw:RadarService"), "svc://radar-1")),
        443),
    "publish-ack": (p.PublishAck(ad_id="ad-000001", lease_id="lease-000002",
                                 lease_duration=60.0, model_id="uri"), 40),
    "publish-ack-unleased": (p.PublishAck(ad_id="ad-000001", lease_id="",
                                          lease_duration=INF), 25),
    "publish-nack": (p.PublishNack(ad_id="ad-000001", model_id="uri", reason="quorum"), 26),
    "renew": (p.RenewPayload(lease_id="lease-000002", ad_id="ad-000001"), 29),
    "leave": (p.LeavePayload(member="registry-001"), 20),
    "leave-self": (p.LeavePayload(), 8),
    "remove": (p.RemovePayload(ad_id="ad-000001"), 17),
    "query": (p.QueryPayload(query_id="q-000003/0", model_id="uri", query=QUERY,
                             max_results=5, ttl=2), 53),
    "query-uncapped": (p.QueryPayload(query_id="q-000003/0", model_id="template",
                                      query=TemplateQuery(frozenset({"free", "text"}))),
                       202),
    "response": (p.ResponsePayload(query_id="q-000003/0", hits=(HIT, HIT), responders=3,
                                   degraded=True, queue_depth=7), 322),
    "response-empty": (p.ResponsePayload(query_id="q-000003/0", hits=()), 26),
    "busy": (p.BusyPayload(request_id="q-000003/0", msg_type="query", retry_after=0.75,
                           queue_depth=2), 31),
    "walk": (p.WalkPayload(query_id="q-000003/0", model_id="uri", query=QUERY,
                           coordinator=PEER, remaining=3,
                           visited=("registry-000", "registry-002"), max_results=1), 90),
    "walk-uncapped": (p.WalkPayload(query_id="q-000003/0", model_id="uri", query=QUERY,
                                    coordinator=PEER, remaining=3,
                                    visited=("registry-000",)), 78),
    "subscribe": (p.SubscribePayload(sub_id="sub-000004", model_id="uri", query=QUERY,
                                     duration=60.0), 53),
    "subscribe-ack": (p.SubscribeAck(sub_id="sub-000004", expires_at=72.5), 26),
    "notify": (p.NotifyPayload(sub_id="sub-000004", hit=HIT), 158),
    "unsubscribe": (p.UnsubscribePayload(sub_id="sub-000004"), 18),
    "registry-list": (p.RegistryListPayload(registries=(DESC, DESC)), 318),
    "ad-forward": (FORWARD, 156),
    "digest": (p.DigestPayload(entries=(("ad-000001", 2, 4), ("ad-000005", 1, 0)),
                               tombstones=(("ad-000006", 3),)), 83),
    "digest-pull": (p.DigestPullPayload(ad_ids=("ad-000001", "ad-000005")), 50),
    "sync-ads": (p.SyncAdsPayload(ads=(FORWARD, FORWARD)), 328),
    "shard-store": (p.ShardStorePayload(request_id="registry-000:w7", entry=FORWARD), 179),
    "shard-ack": (p.ShardAckPayload(request_id="registry-000:w7", ad_id="ad-000001",
                                    found=False, version=2), 40),
    "shard-renew": (p.ShardRenewPayload(request_id="registry-000:w8", ad_id="ad-000001",
                                        epoch=4, duration=60.0), 48),
    "shard-remove": (p.ShardRemovePayload(request_id="registry-000:w9",
                                          ad_id="ad-000001"), 40),
    "artifact-request": (p.ArtifactRequestPayload(artifact_name="battlefield"), 27),
    "artifact-reply": (p.ArtifactReplyPayload(
        artifact_name="battlefield", artifact=battlefield_ontology()), 9392),
    "artifact-reply-missing": (p.ArtifactReplyPayload(artifact_name="battlefield"), 27),
    "registry-description": (DESC, 151),
    "registry-description-bare": (RegistryDescription(
        registry_id="registry-000", lan_name="lan-0", supported_models=("uri",),
        advertisement_count=0, neighbor_count=0), 60),
}

#: The fullest instance of each record class (the first listed above).
SAMPLES: dict[type, Any] = {}
for _instance, _ in GOLDEN.values():
    SAMPLES.setdefault(type(_instance), _instance)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_sizes(case):
    instance, expected = GOLDEN[case]
    assert instance.size_bytes() == expected


def test_golden_sizes_cover_every_record():
    declared = {cls for cls in vars(p).values()
                if dataclasses.is_dataclass(cls) and cls.__module__ == p.__name__}
    assert declared | {RegistryDescription} == set(SAMPLES)
    assert len(declared) == 25


# -- (ii) the wrong record never reaches a handler ---------------------------------


class Probe(Node):
    """A bare node: sends what it is told, keeps what it is sent."""

    def __init__(self):
        super().__init__(PEER)
        self.inbox = []

    def handle_message(self, envelope):
        self.inbox.append(envelope)


def _flood():
    return DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS, antientropy_interval=5.0,
                           beacon_interval=None)


def _sharded():
    return DiscoveryConfig(cooperation=COOPERATION_REPLICATE_ADS, beacon_interval=None,
                           sharding=ShardingConfig(enabled=True))


def _registry(system):
    return system.add_registry("lan-0")


#: role -> (system class, config, what to add to the system).
ROLES = {
    "registry": (DiscoverySystem, DiscoveryConfig, _registry),
    "registry-flood": (DiscoverySystem, _flood, _registry),
    "registry-sharded": (DiscoverySystem, _sharded, _registry),
    "registry-uddi": (DiscoverySystem, ARCHITECTURES["uddi"].config, _registry),
    "client": (DiscoverySystem, DiscoveryConfig, lambda s: s.add_client("lan-0")),
    "service": (DiscoverySystem, DiscoveryConfig, lambda s: s.add_service(
        "lan-0", ServiceProfile.build("radar-1", "ncw:RadarService"))),
}


def _deploy(role):
    system_cls, config, add = ROLES[role]
    system = system_cls(seed=3, ontology=battlefield_ontology(), config=config())
    system.add_lan("lan-0")
    node = add(system)
    probe = system.network.add_node(Probe(), "lan-0")
    system.run(until=0.5)
    return system, node, probe


SERVED = [(role, msg_type) for role in ROLES for msg_type in sorted(_deploy(role)[1].handlers)]


def _another_record(expected):
    return SAMPLES[p.RemovePayload if expected is p.LeavePayload else p.LeavePayload]


@pytest.mark.parametrize("role,msg_type", SERVED)
def test_wrong_record_is_dropped_and_counted_then_the_good_one_is_served(role, msg_type):
    system, node, probe = _deploy(role)
    expected = MESSAGE_RECORDS[msg_type]
    served = []
    handler = node.handlers[msg_type]
    node.handlers[msg_type] = lambda envelope: (served.append(envelope), handler(envelope))
    probe.send(node.node_id, msg_type, _another_record(expected))
    system.run_for(0.5)
    assert (node.malformed_messages, served) == (1, [])
    assert system.network.metrics.counter("protocol.malformed").value == 1
    probe.send(node.node_id, msg_type, SAMPLES.get(expected))  # NoneType: no payload
    system.run_for(0.5)
    assert node.malformed_messages == 1 and node.unknown_messages == 0
    assert [type(e.payload) for e in served] == [expected]


def test_every_declared_type_is_served_by_some_role():
    """Bar one: nobody waits for a REMOVE_ACK (a service that deregisters
    is leaving), so it stays an unknown message at whoever receives it."""
    assert set(MESSAGE_RECORDS) - {msg_type for _, msg_type in SERVED} == {p.REMOVE_ACK}


def test_the_check_sits_before_admission_and_leaves_one_trace_event():
    """A misshapen QUERY is not queued, shed or answered BUSY: it is gone
    before the interceptor reads its correlation id."""
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(),
                             config=DiscoveryConfig(
                                 beacon_interval=None,
                                 admission=AdmissionPolicy(query_cost=0.5, queue_limit=1)))
    system.trace.capture()
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    probe = system.network.add_node(Probe(), "lan-0")
    system.run(until=0.5)
    for _ in range(4):
        probe.send(registry.node_id, p.QUERY, SAMPLES[p.RenewPayload])
    system.run_for(3.0)
    assert registry.malformed_messages == 4
    assert registry.admission.intercepted == 0
    assert [e for e in probe.inbox if e.msg_type == p.BUSY] == []
    events = [e for e in system.sim.trace.events if e.name == "protocol.malformed"]
    assert [(e.node, e.attrs) for e in events] == \
        [(registry.node_id, {"from": PEER, "type": p.QUERY})] * 4


def test_a_plain_node_is_checked_for_nothing():
    """``netsim`` knows no protocol: a node that supplies no table takes
    whatever it is sent (the tests' probes, the harness's publisher)."""
    probe = Probe()
    assert Node.payload_records == {}
    probe.receive(Envelope(p.QUERY, "somebody", PEER, payload="anything at all"))
    assert probe.malformed_messages == 0 and len(probe.inbox) == 1


def test_busy_echoes_the_declared_correlation_field():
    echoed = {cls.__name__: cls.correlation for cls in SAMPLES if cls.correlation}
    assert echoed == {
        "PublishPayload": "ad_id", "RemovePayload": "ad_id", "RenewPayload": "lease_id",
        "QueryPayload": "query_id", "WalkPayload": "query_id",
        "SubscribePayload": "sub_id", "UnsubscribePayload": "sub_id",
    }
    for cls, sample in SAMPLES.items():
        expected = getattr(sample, cls.correlation) if cls.correlation else ""
        assert request_id_of(Envelope("x", "a", "b", payload=sample)) == expected
    assert request_id_of(Envelope("x", "a", "b", payload=None)) == ""
    # Every admission-controlled request a sender retries has one.
    assert all(MESSAGE_RECORDS[t].correlation for t in MESSAGE_CLASS
               if t not in (p.AD_FORWARD, p.ANTIENTROPY_DIGEST, p.ANTIENTROPY_PULL,
                            p.ANTIENTROPY_ADS))


# -- (iii) a malformed record is unrepresentable -----------------------------------


def _wrong(hint, good):
    """Values a field declared ``hint`` must refuse; ``good`` is a valid one
    (rows and items are bent out of shape from it). The generator a fuzzer
    can reuse: it reads nothing but the declaration."""
    if hint == Seconds:
        return [None, "soon", True, 0, 0.0, -5.0, NAN, INF, -INF]
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        return _wrong(args[0], good)
    if origin in (Union, UnionType) and type(None) not in args:  # one of several records
        return [None, 7, "text", [good], _another_record(hint)]
    if origin in (Union, UnionType):
        return [w for w in _wrong(args[0], good) if w is not None]
    if origin is tuple and args[-1] is Ellipsis:
        return [None, "text", list(good), *((bad,) for bad in _wrong(args[0], good[0]))]
    if origin is tuple:  # a fixed-arity row
        return [None, list(good), good[:-1], good + (0,),
                *(good[:i] + (bad,) + good[i + 1:]
                  for i, arg in enumerate(args) for bad in _wrong(arg, good[i]))]
    return {
        str: [None, 7, b"bytes", ["a"]],
        int: [None, "3", True, -1, 2.0],
        float: [None, "1.0", True, NAN],
        bool: [None, 0, 1, "yes"],
    }.get(hint, [None, "text", _another_record(hint)])  # a nested record


FIELDS = [(cls, name, hint) for cls in SAMPLES
          for name, hint in get_type_hints(cls, include_extras=True).items()]


@pytest.mark.parametrize("cls,name,hint", FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in FIELDS])
def test_each_wrong_kind_raises_at_construction(cls, name, hint):
    sample = SAMPLES[cls]
    wrong = _wrong(hint, getattr(sample, name))
    assert wrong
    for value in wrong:
        with pytest.raises(ProtocolError, match=f"{cls.__name__}.{name} must be"):
            dataclasses.replace(sample, **{name: value})
    dataclasses.replace(sample, **{name: getattr(sample, name)})  # the good one builds


def test_description_and_query_slots_take_only_declared_records():
    """The five slots a description model fills are typed by the models'
    records, and refuse junk at construction: nothing where a record is
    required, a number, text, a list, and another slot's record. Every
    model's own records build. Whether a record is the one the *named* model
    declares is the node's model gate's to judge, not the protocol's."""
    typed = {(cls.__name__, name): hint for cls in SAMPLES
             for name, hint in get_type_hints(cls).items()
             if hint in (Description, Query, Ontology | None)}
    assert typed == {
        ("PublishPayload", "description"): Description, ("QueryPayload", "query"): Query,
        ("WalkPayload", "query"): Query, ("SubscribePayload", "query"): Query,
        ("ArtifactReplyPayload", "artifact"): Ontology | None,
    }
    other_slot = {Description: QUERY, Query: AD.description, Ontology | None: QUERY}
    for (cls_name, name), hint in typed.items():
        sample = SAMPLES[getattr(p, cls_name)]
        junk = [7, "not a record", ["a"], other_slot[hint]]
        for value in junk + ([] if hint == Ontology | None else [None]):
            with pytest.raises(ProtocolError, match=f"{cls_name}.{name} must be"):
                dataclasses.replace(sample, **{name: value})
    profile = ServiceProfile.build("radar-1", "ncw:RadarService", outputs=["ncw:AirTrack"])
    request = ServiceRequest.build("ncw:RadarService", outputs=["ncw:AirTrack"])
    for model in make_models(battlefield_ontology()):
        _publish(model_id=model.model_id, description=model.describe(profile, "svc://r"))
        _query(model_id=model.model_id, query=model.query_from(request))


def _publish(**fields):
    return dataclasses.replace(SAMPLES[p.PublishPayload], **fields)


def _query(**fields):
    return dataclasses.replace(SAMPLES[p.QueryPayload], **fields)


#: The probes that found the defects: each used to raise out of a handler,
#: die in its sender's ``size_bytes()``, or switch §4.8's aliveness off.
PROBES = {
    "publish lease_duration='soon' (TypeError in LeaseManager.grant)":
        lambda: _publish(lease_duration="soon"),
    "publish lease_duration=-5.0 (LeaseError out of handle_publish)":
        lambda: _publish(lease_duration=-5.0),
    "publish lease_duration=0": lambda: _publish(lease_duration=0),
    "publish lease_duration=nan (granted, never expires)":
        lambda: _publish(lease_duration=NAN),
    "publish lease_duration=inf (granted, never expires)":
        lambda: _publish(lease_duration=INF),
    "ad-forward lease_duration='x' (TypeError in LeaseManager.grant)":
        lambda: dataclasses.replace(FORWARD, lease_duration="x"),
    "ad-forward lease_duration=0.0 (LeaseError out of handle_shard_transfer)":
        lambda: dataclasses.replace(FORWARD, lease_duration=0.0),
    "shard-renew duration=nan":
        lambda: dataclasses.replace(SAMPLES[p.ShardRenewPayload], duration=NAN),
    "shard-renew duration=-1":
        lambda: dataclasses.replace(SAMPLES[p.ShardRenewPayload], duration=-1),
    "query max_results='3' (heapq.nsmallest)": lambda: _query(max_results="3"),
    "query ttl=None (_plan_flood)": lambda: _query(ttl=None),
    "query query_id=['q'] (_duplicate_query)": lambda: _query(query_id=["q"]),
    "query model_id=['uri'] (ModelRegistry.get_or_discard)":
        lambda: _query(model_id=["uri"]),
    "subscribe duration='x' (handle_subscribe)":
        lambda: dataclasses.replace(SAMPLES[p.SubscribePayload], duration="x"),
    "subscribe duration=nan (never lapses)":
        lambda: dataclasses.replace(SAMPLES[p.SubscribePayload], duration=NAN),
    "renew lease_id=['l'] (LeaseManager.renew)":
        lambda: p.RenewPayload(lease_id=["l"], ad_id="ad-1"),
    "artifact-request ['a'] (ArtifactRepository.fetch)":
        lambda: p.ArtifactRequestPayload(["a"]),
    "walk remaining='2' (handle_walk)":
        lambda: dataclasses.replace(SAMPLES[p.WalkPayload], remaining="2"),
    "digest entries of arity 2 (the sender's size_bytes)":
        lambda: p.DigestPayload(entries=(("a", 1),)),
    "digest tombstones of arity 3":
        lambda: p.DigestPayload(tombstones=(("a", 1, 2),)),
    "response hits=[hit] (a list is not a record's sequence)":
        lambda: p.ResponsePayload(query_id="q", hits=[HIT]),
    "response hits of a non-hit":
        lambda: p.ResponsePayload(query_id="q", hits=(AD,)),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_the_probes_that_found_the_defects_cannot_be_built(probe):
    with pytest.raises(ProtocolError):
        PROBES[probe]()


def test_a_duration_is_bounded_in_sign_and_finiteness_not_capped():
    """``benchmarks/perf`` publishes with a 1e6-second lease; a *granted*
    duration may be ``inf`` (a registry that does not lease); an ``int``
    is a number and a ``bool`` is not."""
    assert _publish(lease_duration=1e6).lease_duration == 1e6
    assert _publish(lease_duration=30).lease_duration == 30
    assert _publish(lease_duration=None).lease_duration is None
    assert p.PublishAck("ad", "", INF).lease_duration == INF
    with pytest.raises(ProtocolError):
        p.PublishAck("ad", "", NAN)
    with pytest.raises(ProtocolError):
        _publish(lease_duration=True)


# -- (iv) every table keyed by message type names declared types -------------------


def _handler_names():
    """Every ``handle_*`` defined (or aliased: ``handle_a = handle_b``)."""
    for path in sorted((SRC / "core").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [node.name] if isinstance(node, ast.FunctionDef) else \
                [t.id for t in node.targets if isinstance(t, ast.Name)] \
                if isinstance(node, ast.Assign) else []
            for name in names:
                if name.startswith("handle_") and name != "handle_message":
                    yield f"core/{path.name}:{name}"


def test_policy_tables_and_handlers_name_declared_types_only():
    constants = {value for name, value in vars(p).items()
                 if name.isupper() and isinstance(value, str)}
    assert set(MESSAGE_RECORDS) == constants
    assert set(MESSAGE_CLASS) <= set(MESSAGE_RECORDS)
    assert set(FENCED_MSG_TYPES) <= set(MESSAGE_RECORDS)
    names = list(_handler_names())
    assert len(names) >= 48
    undeclared = [name for name in names
                  if name.split(":handle_")[1].replace("_", "-") not in MESSAGE_RECORDS]
    assert undeclared == []
