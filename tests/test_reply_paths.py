"""Pins the four "send, wait for replies or a timeout" paths byte for byte.

Each scenario is a tiny fixed-seed deployment that drives one of the
reply-waiting paths — the registry's flood aggregation, the random
walk, the client's attempt/BUSY/failover/fallback ladder, the service's
publish/renew resend chain — and reduces the run to a fingerprint: the
SHA-256 of the trace JSONL export, the SHA-256 of every ``send`` and
``after`` call the nodes under test made (time, argument and relative
order), and the retry/recovery counters. The expected fingerprints were
recorded on the commit *before* the reply-waiting code was consolidated,
so a refactor of those paths passes only if it changes nothing a
same-seed run can observe.

``python tests/test_reply_paths.py`` prints the fingerprints of the
current tree (for re-recording after a deliberate behaviour change).
"""

from __future__ import annotations

import hashlib
import json
from unittest import mock

import pytest

from repro.core import protocol
from repro.core.admission import AdmissionPolicy
from repro.core.config import (
    COOPERATION_REPLICATE_ADS,
    STRATEGY_RANDOM_WALK,
    DiscoveryConfig,
)
from repro.core.invariants import assert_invariants
from repro.core.sharding import ShardingConfig
from repro.core.system import DiscoverySystem
from repro.netsim.faults import FaultPlan
from repro.netsim.messages import Envelope
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest

REQUEST = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


def _radar(name):
    return ServiceProfile.build(name, "ncw:RadarService",
                                outputs=["ncw:AirTrack"])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tap(node, log: list) -> None:
    """Log every ``send`` and ``after`` ``node`` makes, in call order."""
    send, after = node.send, node.after

    def logged_send(dst, msg_type, *args, **kwargs):
        log.append(["send", node.node_id, repr(node.sim.now), dst, msg_type])
        return send(dst, msg_type, *args, **kwargs)

    def logged_after(delay, callback):
        log.append(["after", node.node_id, repr(node.sim.now), repr(delay)])
        return after(delay, callback)

    node.send, node.after = logged_send, logged_after


def _fingerprint(system: DiscoverySystem, log: list, **extra) -> dict:
    metrics = system.network.metrics
    return {
        "trace": _sha(system.trace.capture().export_jsonl()),
        "wire": _sha(json.dumps(log)),
        "retries": dict(sorted(metrics.tallies("retry").items())),
        "recoveries": dict(sorted(metrics.tallies("recovery").items())),
        **extra,
    }


def _call_summary(calls) -> list:
    return [
        [c.completed, c.via, c.attempts, c.busy_responses, c.sent_to,
         sorted(c.service_names()), repr(c.latency)]
        for c in calls
    ]


# -- (i) flood fan-out with a crashed neighbour ---------------------------------


def flood_with_crashed_neighbour() -> dict:
    """Aggregation timeouts blame the silent target until its breaker
    opens; later fan-outs skip it and complete without the wait."""
    config = DiscoveryConfig(
        beacon_interval=1.0, lease_duration=60.0, purge_interval=5.0,
        ping_interval=50.0, signalling_interval=None,
        query_timeout=4.0, aggregation_timeout=0.3, default_ttl=2,
    )
    system = DiscoverySystem(seed=11, ontology=battlefield_ontology(),
                             config=config)
    system.trace.capture()
    for i in range(3):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
        system.add_service(f"lan-{i}", _radar(f"radar-{i}"))
    system.federate_mesh()
    client = system.add_client("lan-0")
    log: list = []
    _tap(system.registries[0], log)
    FaultPlan().crash(3.0, system.registries[2].node_id).apply(system)
    system.run(until=2.5)
    calls = [system.discover(client, REQUEST)]        # everyone answers
    system.run(until=3.5)
    for _ in range(5):                                 # 3 timeouts, then skips
        calls.append(system.discover(client, REQUEST))
        system.run_for(0.5)
    assert not system.registries[0].queries._pending
    assert_invariants(system)
    return _fingerprint(
        system, log, calls=_call_summary(calls),
        late=system.registries[0].queries.late_responses,
    )


# -- (ii) random walk: WALK_END, a dead hop's timeout, a BUSY ---------------------


def _walk_system(seed, *, admission=AdmissionPolicy()):
    config = DiscoveryConfig(
        strategy=STRATEGY_RANDOM_WALK, default_ttl=4,
        beacon_interval=1.0, lease_duration=60.0, purge_interval=5.0,
        ping_interval=50.0, signalling_interval=None,
        query_timeout=6.0, aggregation_timeout=0.3,
        admission=admission,
    )
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=config)
    system.trace.capture()
    for i in range(4):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
    # The only match sits at the far end: the walk must run its length.
    system.add_service("lan-3", _radar("far-radar"))
    system.federate_chain()
    return system


def walk_ended_by_walk_end() -> dict:
    system = _walk_system(12)
    client = system.add_client("lan-0")
    log: list = []
    _tap(system.registries[0], log)
    system.run(until=2.5)
    calls = [system.discover(client, REQUEST) for _ in range(2)]
    assert not system.registries[0].queries._pending
    assert_invariants(system)
    return _fingerprint(system, log, calls=_call_summary(calls))


def walk_ended_by_dead_hop_timeout() -> dict:
    system = _walk_system(13)
    client = system.add_client("lan-0")
    log: list = []
    _tap(system.registries[0], log)
    FaultPlan().crash(2.0, system.registries[2].node_id).apply(system)
    system.run(until=2.5)
    calls = [system.discover(client, REQUEST) for _ in range(2)]
    assert not system.registries[0].queries._pending
    assert_invariants(system)
    return _fingerprint(system, log, calls=_call_summary(calls))


def walk_ended_by_busy() -> dict:
    """Three walks start in the same instant; the first hop serves one,
    queues one and sheds the third with a BUSY — which ends that walk at
    its coordinator at once, while the other two run to their WALK_END."""
    system = _walk_system(14, admission=AdmissionPolicy(
        forward_cost=0.1, queue_limit=1))
    clients = [system.add_client("lan-0") for _ in range(3)]
    log: list = []
    _tap(system.registries[0], log)
    _tap(system.registries[1], log)
    system.run(until=2.5)
    calls = [client.discover(REQUEST) for client in clients]
    system.run_for(8.0)
    assert all(call.completed for call in calls)
    assert not system.registries[0].queries._pending
    assert_invariants(system)
    return _fingerprint(
        system, log, calls=_call_summary(calls),
        shed=[r.admission.shed for r in system.registries],
    )


# -- (iii) client: BUSY, retry_after, failover, fallback, timeout ------------------


def _client_counters(client) -> list:
    return [client.busy_rejections, client.query_retries,
            client.fallback_queries, client.tracker.failovers]


def _client_system(seed):
    config = DiscoveryConfig(
        beacon_interval=1.0, lease_duration=5.0, purge_interval=1.0,
        ping_interval=1.0, signalling_interval=2.0,
        query_timeout=2.0, aggregation_timeout=0.3,
    )
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=config)
    system.trace.capture()
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    system.add_registry("lan-0")
    system.add_service("lan-0", _radar("radar"))
    client = system.add_client("lan-0")
    log: list = []
    _tap(client, log)
    system.run(until=2.0)
    return system, client, log


def _reject_attempts(client, *, retry_after, limit):
    """Answer each registry attempt with a BUSY the instant it is sent,
    as a saturated zero-latency registry would, ``limit`` times a call."""
    dispatch = client._dispatch

    def dispatch_and_reject(call):
        dispatch(call)
        if call.completed or call.via == "fallback" \
                or call.busy_responses >= limit:
            return
        wire_id = next(
            (w for w, c in client._by_wire_id.items() if c is call), None)
        if wire_id is not None:
            client.receive(Envelope(
                msg_type=protocol.BUSY, src=call.sent_to, dst=client.node_id,
                payload=protocol.BusyPayload(
                    request_id=wire_id, msg_type=protocol.QUERY,
                    retry_after=retry_after, queue_depth=3),
            ))

    client._dispatch = dispatch_and_reject


def client_busy_then_sibling_answers() -> dict:
    """BUSY → wait ``retry_after`` → second BUSY → fail over → answered."""
    system, client, log = _client_system(15)
    _reject_attempts(client, retry_after=0.2, limit=2)
    calls = [client.discover(REQUEST)]
    system.run_for(6.0)
    assert client._by_wire_id == {}
    assert_invariants(system)
    return _fingerprint(
        system, log, calls=_call_summary(calls),
        client=_client_counters(client),
    )


def client_busy_until_fallback() -> dict:
    """Every attempt shed: the budget runs out and the LAN fallback
    answers from the service itself."""
    system, client, log = _client_system(16)
    _reject_attempts(client, retry_after=0.2, limit=99)
    calls = [client.discover(REQUEST), client.discover(REQUEST)]
    system.run_for(6.0)
    assert client._by_wire_id == {}
    assert_invariants(system)
    return _fingerprint(
        system, log, calls=_call_summary(calls),
        client=_client_counters(client),
    )


def client_hint_longer_than_deadline() -> dict:
    """A ``retry_after`` that cannot fit the call's deadline: fail over
    now and retry on the client's own (budget-clamped) backoff."""
    system, client, log = _client_system(17)
    _reject_attempts(client, retry_after=60.0, limit=1)
    calls = [client.discover(REQUEST)]
    system.run_for(6.0)
    assert client._by_wire_id == {}
    assert_invariants(system)
    return _fingerprint(
        system, log, calls=_call_summary(calls),
        client=_client_counters(client),
    )


def client_timeouts_until_fallback() -> dict:
    """Both registries dead: timeout → blame → fail over → timeout →
    budget spent → fallback. A third call starts with no registry left."""
    system, client, log = _client_system(18)
    for registry in system.registries:
        registry.crash()
    calls = [client.discover(REQUEST), client.discover(REQUEST)]
    system.run_for(12.0)
    calls.append(client.discover(REQUEST))
    system.run_for(3.0)
    assert client._by_wire_id == {}
    assert_invariants(system)
    return _fingerprint(
        system, log, calls=_call_summary(calls),
        client=_client_counters(client),
    )


# -- (iv) service: publish/renew retransmits, BUSY deferral, quorum NACK -----------


def _service_counters(service) -> list:
    return [service.publishes_sent, service.republish_events,
            service.publish_retries, service.renew_retries,
            service.busy_deferrals, service.tracker.failovers]


def service_publish_retransmit() -> dict:
    """A blackout swallows a republish; the chain resends it."""
    system = DiscoverySystem(seed=19, ontology=battlefield_ontology())
    system.trace.capture()
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    service = system.add_service("lan-0", _radar("radar"))
    log: list = []
    _tap(service, log)
    system.run(until=3.0)
    FaultPlan().loss_burst(3.0, 2.5, 1.0, lan="lan-0").apply(system)
    system.sim.schedule_at(3.1, lambda: service.update_profile(service.profile))
    system.run(until=20.0)
    assert all(r.acked for r in service._published.values())
    assert len(registry.store) == 3
    assert_invariants(system)
    return _fingerprint(system, log, service=_service_counters(service))


def service_renew_retransmit() -> dict:
    """A blackout swallows one renew round; the chain resends it before
    the next tick would have failed over."""
    system = DiscoverySystem(seed=20, ontology=battlefield_ontology())
    system.trace.capture()
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    service = system.add_service("lan-0", _radar("radar"))
    log: list = []
    _tap(service, log)
    system.run(until=3.0)
    FaultPlan().loss_burst(23.9, 1.5, 1.0, lan="lan-0").apply(system)
    system.run(until=60.0)
    assert service.tracker.current == registry.node_id
    assert all(not r.renew_outstanding for r in service._published.values())
    assert_invariants(system)
    return _fingerprint(system, log, service=_service_counters(service))


def service_busy_deferred() -> dict:
    """A registry that takes 0.3 s per renew and queues one: the three
    renews of a tick are served, queued and shed — the shed one comes
    back on the BUSY's hint, beside the still-armed retry chain. Then a
    republish under the same squeeze (publishes are shed too), with BUSY
    hints of 0.4 s per queued message."""
    config = DiscoveryConfig(
        lease_duration=10.0, purge_interval=1.0,
        admission=AdmissionPolicy(renew_cost=0.3, publish_cost=0.3, queue_limit=1),
    )
    system = DiscoverySystem(seed=21, ontology=battlefield_ontology(),
                             config=config)
    system.trace.capture()
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    service = system.add_service("lan-0", _radar("radar"))
    log: list = []
    _tap(service, log)
    system.sim.schedule_at(9.0, lambda: service.update_profile(service.profile))
    with mock.patch("repro.core.admission.RETRY_AFTER_BASE", 0.4):
        system.run(until=30.0)
    assert service.busy_deferrals > 0
    assert registry.admission.shed > 0
    assert_invariants(system)
    return _fingerprint(
        system, log, service=_service_counters(service),
        shed=dict(sorted(registry.admission.shed_by_class.items())),
    )


def service_quorum_nack_keeps_one_chain() -> dict:
    """W=3 of R=3 with two replicas down: every publish is NACKed with
    reason "quorum"; the chain armed at send time keeps running and no
    NACK arms a second one."""
    config = DiscoveryConfig(
        cooperation=COOPERATION_REPLICATE_ADS, default_ttl=0,
        antientropy_interval=2.0, lease_duration=30.0, purge_interval=2.0,
        query_timeout=2.0, aggregation_timeout=0.3,
        sharding=ShardingConfig(enabled=True, replication_factor=3, write_quorum=3),
    )
    system = DiscoverySystem(seed=22, ontology=battlefield_ontology(),
                             config=config)
    system.trace.capture()
    for i in range(4):
        system.add_lan(f"lan-{i}")
    registries = [
        system.add_registry(f"lan-{i}", node_id=f"registry-{i:02d}",
                            seeds=(f"registry-{(i + 1) % 4:02d}",))
        for i in range(4)
    ]
    system.run(until=10.0)
    registries[2].crash()
    registries[3].crash()
    system.run_for(1.0)
    late = system.add_service("lan-0", _radar("late-radar"))
    log: list = []
    _tap(late, log)
    system.run_for(20.0)
    assert registries[0].writes.quorum_failed > 0
    return _fingerprint(
        system, log, service=_service_counters(late),
        quorum_failed=[r.writes.quorum_failed for r in registries],
    )


SCENARIOS = [
    flood_with_crashed_neighbour,
    walk_ended_by_walk_end,
    walk_ended_by_dead_hop_timeout,
    walk_ended_by_busy,
    client_busy_then_sibling_answers,
    client_busy_until_fallback,
    client_hint_longer_than_deadline,
    client_timeouts_until_fallback,
    service_publish_retransmit,
    service_renew_retransmit,
    service_busy_deferred,
    service_quorum_nack_keeps_one_chain,
]

#: Recorded on the parent of the consolidation (commit 75978d2).
#: ``walk_ended_by_busy``'s trace was re-recorded when the BUSY hint's
#: base became the constant ``admission.RETRY_AFTER_BASE`` (0.1 s; the
#: run had the old 0.25 s default): only the hint the trace records moved.
EXPECTED: dict[str, dict] = {'flood_with_crashed_neighbour': {'trace': '0bdec14cb66562917ecb18f3e1f9b7434a779d52f66560662d3c6aa78655a433',
                                  'wire': '89da817a7112d475aae7481d3568663f46a53a6648e94bdd6da74deb02b23a85',
                                  'retries': {},
                                  'recoveries': {'breaker-open': 2,
                                                 'breaker-skip': 4},
                                  'calls': [[True,
                                             'registry:registry-00',
                                             1,
                                             0,
                                             'registry-00',
                                             ['radar-0', 'radar-1', 'radar-2'],
                                             '0.20199999999999907'],
                                            [True,
                                             'registry:registry-00',
                                             1,
                                             0,
                                             'registry-00',
                                             ['radar-0', 'radar-1'],
                                             '0.6020000000000003'],
                                            [True,
                                             'registry:registry-00',
                                             1,
                                             0,
                                             'registry-00',
                                             ['radar-0', 'radar-1'],
                                             '0.6020000000000003'],
                                            [True,
                                             'registry:registry-00',
                                             1,
                                             0,
                                             'registry-00',
                                             ['radar-0', 'radar-1'],
                                             '0.6020000000000003'],
                                            [True,
                                             'registry:registry-00',
                                             1,
                                             0,
                                             'registry-00',
                                             ['radar-0', 'radar-1'],
                                             '0.10200000000000031'],
                                            [True,
                                             'registry:registry-00',
                                             1,
                                             0,
                                             'registry-00',
                                             ['radar-0', 'radar-1'],
                                             '0.10200000000000031']],
                                  'late': 0},
 'walk_ended_by_walk_end': {'trace': '95fcd28655b3b73b81b212c216dc3bdcee65f469947adaac3a81a5b313744352',
                            'wire': 'dbe5c7ce8170085c8786cdc7429a105f9e6c3b32be7461e1766b5093df44860a',
                            'retries': {},
                            'recoveries': {},
                            'calls': [[True,
                                       'registry:registry-00',
                                       1,
                                       0,
                                       'registry-00',
                                       ['far-radar'],
                                       '0.20199999999999907'],
                                      [True,
                                       'registry:registry-00',
                                       1,
                                       0,
                                       'registry-00',
                                       ['far-radar'],
                                       '0.20199999999999907']]},
 'walk_ended_by_dead_hop_timeout': {'trace': '40e3ace584b8263f070f96b7b6b7429b6132d7bc3a0ecef3cda240d837c896fa',
                                    'wire': 'a6a44d67fa005fa19c0fbca39b06c6bc43a2795490aa7b6cb8d67f58b57a601b',
                                    'retries': {},
                                    'recoveries': {},
                                    'calls': [[True,
                                               'registry:registry-00',
                                               1,
                                               0,
                                               'registry-00',
                                               [],
                                               '1.2019999999999995'],
                                              [True,
                                               'registry:registry-00',
                                               1,
                                               0,
                                               'registry-00',
                                               [],
                                               '1.2020000000000004']]},
 'walk_ended_by_busy': {'trace': '1ffedbb8a8745a6e1a1a12cdae1d4071f733cc644e2a5909afd95d0292e909b5',
                        'wire': 'ac10d89ef168747d5cf05f1efd00d9e94b506bd73ed31995fcf74a0be1e3ae82',
                        'retries': {},
                        'recoveries': {},
                        'calls': [[True,
                                   'registry:registry-00',
                                   1,
                                   0,
                                   'registry-00',
                                   ['far-radar'],
                                   '0.5019999999999993'],
                                  [True,
                                   'registry:registry-00',
                                   1,
                                   0,
                                   'registry-00',
                                   ['far-radar'],
                                   '0.6019999999999994'],
                                  [True,
                                   'registry:registry-00',
                                   1,
                                   0,
                                   'registry-00',
                                   [],
                                   '0.10199999999999942']],
                        'shed': [0, 1, 0, 0]},
 'client_busy_then_sibling_answers': {'trace': 'eac5ec6bffbf7e4eb8e4bc4250b19a441fa4314d1f48ba649b383f751db18e12',
                                      'wire': 'd190ce9d9944a616e571f0182e7ec70099c4502147412f5edc84170e7193974a',
                                      'retries': {'query-busy': 2},
                                      'recoveries': {},
                                      'calls': [[True,
                                                 'registry:registry-01',
                                                 3,
                                                 2,
                                                 'registry-01',
                                                 ['radar'],
                                                 '0.3887520011162269']],
                                      'client': [2, 2, 0, 1]},
 'client_busy_until_fallback': {'trace': '2ace6bd84aa60bdfc6dd31b4a75663dcc817ee13d8438a685876729ae6715010',
                                'wire': 'd5e7fe381ae36ff8f3175261deaadf11ce6d81963e3a820208c9e0eab696beec',
                                'retries': {'query-busy': 4},
                                'recoveries': {},
                                'calls': [[True,
                                           'fallback',
                                           3,
                                           2,
                                           'registry-01',
                                           ['radar', 'radar'],
                                           '0.8946743160008159'],
                                          [True,
                                           'fallback',
                                           3,
                                           2,
                                           'registry-00',
                                           ['radar', 'radar'],
                                           '0.8947549874043919']],
                                'client': [4, 4, 2, 2]},
 'client_hint_longer_than_deadline': {'trace': '75a1d08ef96d48163725874ed38b4809495dc594bbcebbc879a555e7001cefd9',
                                      'wire': 'd3d5a1646f38fcb453805039bc23e623a9bb9c25f511348698c8fb0694eeb249',
                                      'retries': {'query-busy': 1},
                                      'recoveries': {},
                                      'calls': [[True,
                                                 'registry:registry-01',
                                                 2,
                                                 1,
                                                 'registry-01',
                                                 ['radar'],
                                                 '0.20479596224725105']],
                                      'client': [1, 1, 0, 1]},
 'client_timeouts_until_fallback': {'trace': '1ef1224130c36f9835f2cd3cbd282e0170b3164c2f0e1c17ec724b49c71ddd16',
                                    'wire': '4fa13e53087f187a726f50ec6994760015face7f8f55e75816d828bcca7a0f00',
                                    'retries': {'publish': 3,
                                                'query': 2,
                                                'renew': 3},
                                    'recoveries': {},
                                    'calls': [[True,
                                               'fallback',
                                               3,
                                               0,
                                               'registry-01',
                                               ['radar'],
                                               '4.681866755420777'],
                                              [True,
                                               'fallback',
                                               3,
                                               0,
                                               'registry-01',
                                               ['radar'],
                                               '4.681591853630168'],
                                              [True,
                                               'fallback',
                                               1,
                                               0,
                                               '',
                                               ['radar'],
                                               '0.5']],
                                    'client': [0, 2, 3, 2]},
 'service_publish_retransmit': {'trace': 'da9c8e5bf2043378af9bff383c16ab7d89a690c4925d83af73e6b1e787b5c13b',
                                'wire': '218668e646ee4de2aa510cb933e9c9d0fdf1176f26a272a4a9e4c153212e4d23',
                                'retries': {'publish': 6},
                                'recoveries': {},
                                'service': [6, 2, 6, 0, 0, 0]},
 'service_renew_retransmit': {'trace': '9f5eed3d3055bfaea2864122292a6981a528d75e0548820e72cbb873032c0a19',
                              'wire': 'b1ae63c7b250ac01b94499aa0819b7bde2ae1b4fcafc0f26cc170e819e1982a7',
                              'retries': {'renew': 6},
                              'recoveries': {},
                              'service': [3, 1, 0, 6, 0, 0]},
 'service_busy_deferred': {'trace': 'dfafc928f856e17543a982d95bf3aafa23610c4997064e61c167de4c9ccd41de',
                           'wire': 'dc73373a55720cb9e21c6d236142ef44cfd934ed6b17ef40c77565b068d81a40',
                           'retries': {'publish': 6, 'renew': 13},
                           'recoveries': {},
                           'service': [6, 2, 6, 13, 12, 0],
                           'shed': {'publish': 5, 'renew': 7}},
 'service_quorum_nack_keeps_one_chain': {'trace': '43e814cab661333987d9c528a64916e1d72366a1c15aa29d456a5cd3a1e73993',
                                         'wire': '4e335c5dab9d97d6c3057d14596b4162a5c9cf240afc0267cd5811465b0f9b79',
                                         'retries': {'publish': 21},
                                         'recoveries': {'antientropy-round': 40},
                                         'service': [9, 3, 21, 0, 0, 1],
                                         'quorum_failed': [24, 6, 0, 0]}}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_reply_path_is_unchanged(scenario):
    assert scenario() == EXPECTED[scenario.__name__]


if __name__ == "__main__":
    print(json.dumps({s.__name__: s() for s in SCENARIOS}, indent=4))
