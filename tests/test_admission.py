"""Tests for registry admission control: queueing, shedding, BUSY paths."""

from __future__ import annotations

import pytest

from repro.core import protocol
from repro.core.admission import (
    CLASS_FORWARD,
    CLASS_QUERY,
    CLASS_RENEW,
    RETRY_AFTER_BASE,
    AdmissionController,
    AdmissionPolicy,
    request_id_of,
)
from repro.core.config import DiscoveryConfig
from repro.core.retry import JITTER, RetryPolicy
from repro.core.system import DiscoverySystem
from repro.descriptions.uri import UriQuery
from repro.errors import ReproError
from repro.netsim.messages import Envelope
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest


# -- AdmissionPolicy ----------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ReproError):
        AdmissionPolicy(query_cost=-0.1)
    with pytest.raises(ReproError):
        AdmissionPolicy(queue_limit=0)
    with pytest.raises(ReproError):
        AdmissionPolicy(degrade_at=0.0)
    with pytest.raises(ReproError):
        AdmissionPolicy(degrade_at=1.5)


def test_policy_classifies_data_plane_only():
    policy = AdmissionPolicy()
    assert policy.classify(protocol.RENEW) == CLASS_RENEW
    assert policy.classify(protocol.QUERY) == CLASS_QUERY
    assert policy.classify(protocol.QUERY_FORWARD) == CLASS_FORWARD
    # Control plane is never admission-controlled.
    assert policy.classify(protocol.REGISTRY_PROBE) is None
    assert policy.classify(protocol.QUERY_RESPONSE) is None
    assert policy.classify(protocol.REGISTRY_PING) is None


def test_retry_after_is_monotone_in_depth():
    policy = AdmissionPolicy()
    hints = [policy.retry_after(depth) for depth in range(10)]
    assert hints == sorted(hints)
    assert hints[0] == RETRY_AFTER_BASE > 0  # depth 0 still backs off


def test_request_id_of_payloads():
    query = Envelope(msg_type=protocol.QUERY, src="a", dst="b",
                     payload=protocol.QueryPayload(
                         query_id="q1", model_id="uri", query=UriQuery("x")))
    renew = Envelope(msg_type=protocol.RENEW, src="a", dst="b",
                     payload=protocol.RenewPayload(lease_id="l1", ad_id="ad1"))
    assert request_id_of(query) == "q1"
    assert request_id_of(renew) == "l1"


# -- AdmissionController (unit, via a recording node) -------------------------

class Sink(Node):
    """A node whose dispatches are recorded with their service time."""

    def __init__(self, node_id="sink"):
        super().__init__(node_id)
        self.served: list[tuple[float, str]] = []

    def dispatch(self, envelope):
        self.served.append((self.sim.now, envelope.msg_type))

    def on_crash(self):
        self.admission.on_crash()


class Catcher(Node):
    """Captures BUSY rejections sent back to it."""

    def __init__(self, node_id="src"):
        super().__init__(node_id)
        self.busy: list[protocol.BusyPayload] = []

    def receive(self, envelope):
        if self.alive and envelope.msg_type == protocol.BUSY:
            self.busy.append(envelope.payload)


def _rig(policy):
    sim = Simulator(seed=7)
    net = Network(sim)
    net.add_lan("lan")
    sink = net.add_node(Sink(), "lan")
    src = net.add_node(Catcher(), "lan")
    sink.admission = AdmissionController(sink, policy)
    return sim, sink, src


def _query(src, seq):
    return Envelope(msg_type=protocol.QUERY, src=src.node_id, dst="sink",
                    payload=protocol.QueryPayload(
                        query_id=f"q{seq}", model_id="uri",
                        query=UriQuery("x")))


def _renew(src, seq):
    return Envelope(msg_type=protocol.RENEW, src=src.node_id, dst="sink",
                    payload=protocol.RenewPayload(lease_id=f"l{seq}",
                                                  ad_id=f"ad{seq}"))


def test_zero_cost_classes_bypass_the_queue():
    sim, sink, src = _rig(AdmissionPolicy())  # all costs default 0.0
    assert not sink.admission.intercept(_query(src, 1))
    assert sink.admission.intercepted == 0


def test_service_is_serialized_at_cost_spacing():
    sim, sink, src = _rig(AdmissionPolicy(query_cost=0.1, queue_limit=8))
    for i in range(3):
        assert sink.admission.intercept(_query(src, i))
    sim.run(until=1.0)
    assert [t for t, _ in sink.served] == pytest.approx([0.1, 0.2, 0.3])
    assert sink.admission.dispatched == 3
    assert sink.admission.audit() == []


def test_renew_jumps_the_query_queue():
    policy = AdmissionPolicy(query_cost=0.1, renew_cost=0.01, queue_limit=8)
    sim, sink, src = _rig(policy)
    for i in range(3):
        sink.admission.intercept(_query(src, i))
    sink.admission.intercept(_renew(src, 0))  # arrives last ...
    sim.run(until=1.0)
    # ... but is served right after the query already in service.
    assert [m for _, m in sink.served] == [
        protocol.QUERY, protocol.RENEW, protocol.QUERY, protocol.QUERY,
    ]


def test_overflow_sheds_with_busy():
    policy = AdmissionPolicy(query_cost=0.1, queue_limit=2)
    sim, sink, src = _rig(policy)
    for i in range(5):  # 1 in service + 2 queued + 2 shed
        sink.admission.intercept(_query(src, i))
    sim.run(until=1.0)
    admission = sink.admission
    assert admission.shed == 2
    assert admission.busy_sent == 2
    assert admission.dispatched == 3
    assert len(src.busy) == 2
    for payload in src.busy:
        assert payload.msg_type == protocol.QUERY
        assert payload.retry_after == policy.retry_after(payload.queue_depth)
    assert admission.shed_by_class == {"query": 2}
    assert admission.audit() == []


def test_priority_mode_evicts_worst_to_admit_renew():
    policy = AdmissionPolicy(query_cost=0.1, renew_cost=0.01, queue_limit=2,
                             prioritized=True)
    sim, sink, src = _rig(policy)
    for i in range(3):  # fills: 1 in service + 2 queued
        sink.admission.intercept(_query(src, i))
    sink.admission.intercept(_renew(src, 0))  # queue full -> evict a query
    sim.run(until=1.0)
    assert sink.admission.shed_by_class == {"query": 1}
    assert protocol.RENEW in [m for _, m in sink.served]


def test_fifo_mode_tail_drops_the_newcomer():
    policy = AdmissionPolicy(query_cost=0.1, renew_cost=0.01, queue_limit=2,
                             prioritized=False)
    sim, sink, src = _rig(policy)
    for i in range(3):
        sink.admission.intercept(_query(src, i))
    sink.admission.intercept(_renew(src, 0))  # FIFO: the renew itself drops
    sim.run(until=1.0)
    assert sink.admission.shed_by_class == {"renew": 1}
    assert protocol.RENEW not in [m for _, m in sink.served]


def test_crash_accounts_lost_work():
    sim, sink, src = _rig(AdmissionPolicy(query_cost=0.1, queue_limit=8))
    for i in range(4):
        sink.admission.intercept(_query(src, i))
    sim.run(until=0.15)  # one served, one in service, two queued
    sink.crash()
    assert sink.admission.lost_on_crash == 3
    assert sink.admission.depth == 0
    assert sink.admission.audit() == []


def test_unbounded_queue_never_sheds():
    sim, sink, src = _rig(AdmissionPolicy(query_cost=0.1, queue_limit=None))
    for i in range(50):
        sink.admission.intercept(_query(src, i))
    assert sink.admission.max_depth == 50
    assert not sink.admission.overloaded  # unbounded queues never degrade
    sim.run(until=10.0)
    assert sink.admission.shed == 0
    assert sink.admission.dispatched == 50
    assert sink.admission.audit() == []


# -- RetryPolicy server hint --------------------------------------------------

def test_retry_after_hint_replaces_backoff():
    policy = RetryPolicy(base=0.5, cap=2.0, max_attempts=3)
    assert policy.delay(2) == pytest.approx(1.0, rel=JITTER)
    assert policy.delay(2, retry_after=0.3) == pytest.approx(0.3, rel=JITTER)
    # Uncapped: the server knows its own backlog.
    assert policy.delay(1, retry_after=50.0) == pytest.approx(50.0, rel=JITTER)


def test_retry_after_hint_keeps_jitter_and_budget():
    policy = RetryPolicy(base=0.5, cap=2.0, max_attempts=3)
    hinted = policy.delay(1, seed=4, key="k", retry_after=1.0)
    assert 1.0 - JITTER <= hinted <= 1.0 + JITTER
    assert hinted == policy.delay(1, seed=4, key="k", retry_after=1.0)


def test_negative_retry_after_hint_rejected():
    policy = RetryPolicy()
    with pytest.raises(ReproError):
        policy.delay(1, retry_after=-0.1)


# -- integration: registry, client, and service under admission ---------------

def _active_policy(**overrides):
    kwargs = dict(query_cost=0.2, forward_cost=0.1, publish_cost=0.01,
                  renew_cost=0.01, queue_limit=4, degrade_at=0.25)
    kwargs.update(overrides)
    return AdmissionPolicy(**kwargs)


@pytest.fixture
def fast_config():
    return DiscoveryConfig(
        beacon_interval=1.0,
        lease_duration=6.0,
        purge_interval=0.5,
        query_timeout=2.0,
        aggregation_timeout=0.3,
    )


def _radar(name="radar-1"):
    return ServiceProfile.build(name, "ncw:AirSurveillanceRadarService",
                                outputs=["ncw:AirTrack"],
                                qos={"latency_ms": 40.0})


REQUEST = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


def test_overloaded_registry_answers_degraded(fast_config):
    config = DiscoveryConfig(
        beacon_interval=1.0, lease_duration=6.0, purge_interval=0.5,
        query_timeout=4.0, aggregation_timeout=0.3,
        admission=_active_policy(),
    )
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    # Back-to-back queries: the second is still queued while the first
    # is dispatched, so depth >= degrade_at * queue_limit and the first
    # is answered from the local store with the degraded marker. By the
    # time the second is dispatched the queue has drained.
    first = client.discover(REQUEST, model_id="semantic")
    second = client.discover(REQUEST, model_id="semantic")
    system.run_for(4.0)
    assert first.completed and second.completed
    assert first.degraded
    assert not second.degraded
    assert first.hits  # degraded mode still serves local hits
    assert system.network.metrics.counter("admission.degraded").value >= 1


def test_client_retries_on_busy_with_server_hint(fast_config):
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=fast_config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = client.discover(REQUEST, model_id="semantic")
    wire_id = next(iter(client._by_wire_id))
    # Hand-craft the rejection a saturated registry would send.
    client.receive(Envelope(
        msg_type=protocol.BUSY, src=call.sent_to, dst=client.node_id,
        payload=protocol.BusyPayload(request_id=wire_id,
                                     msg_type=protocol.QUERY,
                                     retry_after=0.4, queue_depth=3),
    ))
    assert client.busy_rejections == 1
    assert call.busy_responses == 1
    assert wire_id not in client._by_wire_id  # that attempt is dead
    system.run_for(4.0)
    assert call.completed and call.hits  # the deferred retry succeeded
    assert client.query_retries >= 1


def test_client_fails_over_after_repeated_busy(fast_config):
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=fast_config)
    system.add_lan("lan-0")
    saturated = system.add_registry("lan-0")
    sibling = system.add_registry("lan-0")
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    attachment = client.tracker.current

    # Reject the first two attempts the instant they hit the wire, as a
    # saturated registry with zero latency would.
    original_dispatch = client._dispatch

    def dispatch_and_reject(call):
        original_dispatch(call)
        if call.busy_responses >= 2 or call.completed:
            return
        wire_id = next(
            (w for w, c in client._by_wire_id.items() if c is call), None)
        if wire_id is not None:
            client.receive(Envelope(
                msg_type=protocol.BUSY, src=call.sent_to,
                dst=client.node_id,
                payload=protocol.BusyPayload(request_id=wire_id,
                                             msg_type=protocol.QUERY,
                                             retry_after=0.2,
                                             queue_depth=3),
            ))

    client._dispatch = dispatch_and_reject
    call = client.discover(REQUEST, model_id="semantic")
    system.run_for(6.0)
    assert client.busy_rejections == 2
    # Two rejections from the same attachment: the tracker moved on, and
    # the third attempt succeeded against the sibling.
    assert client.tracker.current != attachment
    assert call.completed and call.hits
    assert call.sent_to != attachment


def test_service_defers_renew_on_busy():
    # A long lease keeps the natural renew cycle (and its flag-clearing
    # ack) out of the window under test.
    config = DiscoveryConfig(beacon_interval=1.0, lease_duration=30.0,
                             purge_interval=5.0)
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    service = system.add_service("lan-0", _radar())
    system.run(until=2.0)
    record = next(iter(service._published.values()))
    assert record.acked and record.lease_id
    # Fake an outstanding renewal the registry then sheds.
    record.renew_outstanding = True
    before = service.renew_retries
    service.receive(Envelope(
        msg_type=protocol.BUSY, src=registry.node_id, dst=service.node_id,
        payload=protocol.BusyPayload(request_id=record.lease_id,
                                     msg_type=protocol.RENEW,
                                     retry_after=0.5, queue_depth=2),
    ))
    assert service.busy_deferrals == 1
    system.run_for(1.0)
    # The deferred resend fired and the registry (not saturated here)
    # acked it: the lease is alive and the flag cleared.
    assert service.renew_retries == before + 1
    assert not record.renew_outstanding


def test_busy_from_foreign_registry_ignored_by_service(fast_config):
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=fast_config)
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    service = system.add_service("lan-0", _radar())
    system.run(until=2.0)
    record = next(iter(service._published.values()))
    record.renew_outstanding = True
    service.receive(Envelope(
        msg_type=protocol.BUSY, src="registry-elsewhere",
        dst=service.node_id,
        payload=protocol.BusyPayload(request_id=record.lease_id,
                                     msg_type=protocol.RENEW,
                                     retry_after=0.5, queue_depth=2),
    ))
    assert service.busy_deferrals == 0


# -- RetryPolicy deadline budget ----------------------------------------------

def test_budget_clamps_hint_and_computed_delay():
    policy = RetryPolicy(base=0.5, cap=8.0, max_attempts=3)
    # A generous server hint cannot schedule the retry past the
    # caller's remaining deadline.
    assert 1.5 * (1 - JITTER) <= policy.delay(1, retry_after=50.0, budget=1.5) <= 1.5
    # The clamp also bounds the computed exponential path.
    assert policy.delay(3) == pytest.approx(2.0, rel=JITTER)
    assert policy.delay(3, budget=0.75) == 0.75
    # A hint that already fits passes through, jittered only.
    assert policy.delay(1, retry_after=0.4, budget=1.5) == pytest.approx(0.4, rel=JITTER)


def test_budget_clamp_applies_after_jitter():
    policy = RetryPolicy(base=0.5, cap=8.0, max_attempts=3)
    # Whatever the jitter draw, the budget is a hard ceiling.
    for key in ("a", "b", "c", "d"):
        assert policy.delay(1, seed=9, key=key, retry_after=1.0,
                            budget=1.0) <= 1.0


def test_negative_budget_rejected():
    policy = RetryPolicy()
    with pytest.raises(ReproError):
        policy.delay(1, budget=-0.1)
    assert policy.delay(1, budget=0.0) == 0.0


def test_client_fails_over_when_hint_exceeds_deadline(fast_config):
    # Regression: a saturated registry's retry_after hint used to be
    # taken at face value even when it pushed the retry past the call's
    # deadline — the client slept through its own budget and the call
    # died in the query timeout. Now the un-affordable hint triggers an
    # immediate failover and a budget-clamped retry.
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=fast_config)
    system.add_lan("lan-0")
    saturated = system.add_registry("lan-0")
    sibling = system.add_registry("lan-0")
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    client.tracker.seed(saturated.node_id)

    call = client.discover(REQUEST, model_id="semantic")
    assert call.sent_to == saturated.node_id
    wire_id = next(iter(client._by_wire_id))
    deadline_budget = call.deadline - system.sim.now
    # A hint far beyond the whole attempt budget (3 x 2s query_timeout).
    client.receive(Envelope(
        msg_type=protocol.BUSY, src=saturated.node_id, dst=client.node_id,
        payload=protocol.BusyPayload(request_id=wire_id,
                                     msg_type=protocol.QUERY,
                                     retry_after=deadline_budget + 30.0,
                                     queue_depth=9),
    ))
    # One BUSY sufficed: the hint could not fit, so the tracker moved
    # off the saturated registry immediately.
    assert client.tracker.current == sibling.node_id
    system.run_for(6.0)
    assert call.completed and call.hits
    assert call.sent_to == sibling.node_id
    # The retry ran on the client's own (budget-clamped) schedule, well
    # inside the deadline, not on the absurd server hint.
    assert call.latency < deadline_budget


def test_client_busy_retry_never_sleeps_past_deadline(fast_config):
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=fast_config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)

    call = client.discover(REQUEST, model_id="semantic")
    wire_id = next(iter(client._by_wire_id))
    # Burn most of the budget, then shed with a hint that fits the
    # original deadline but not the remainder.
    system.run_for(0.0)
    remaining = call.deadline - system.sim.now
    hint = remaining - 0.05  # fits: kept, but clamped by the budget
    client.receive(Envelope(
        msg_type=protocol.BUSY, src=registry.node_id, dst=client.node_id,
        payload=protocol.BusyPayload(request_id=wire_id,
                                     msg_type=protocol.QUERY,
                                     retry_after=hint, queue_depth=2),
    ))
    system.run_for(30.0)
    assert call.completed
    # However the retry was scheduled, the call resolved within its
    # attempt budget (deadline + one query timeout + fallback window).
    assert call.latency <= (call.deadline - call.issued_at) + 2.5


# -- BUSY accounting on the fallback path -------------------------------------

def test_late_busy_on_fallback_path_not_double_counted(fast_config):
    # Regression: a registry BUSY arriving while the call was already in
    # decentralized fallback used to re-enter the retry path — bumping
    # busy_rejections a second time for the same call and re-dispatching
    # a call the fallback timer was about to complete (resurrecting a
    # completed DiscoveryCall on slow LANs).
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=fast_config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)

    busy = lambda wid: Envelope(
        msg_type=protocol.BUSY, src=registry.node_id, dst=client.node_id,
        payload=protocol.BusyPayload(request_id=wid,
                                     msg_type=protocol.QUERY,
                                     retry_after=0.1, queue_depth=3),
    )

    # Shed every registry attempt the instant it hits the wire, until
    # the attempt budget forces the decentralized fallback.
    original_dispatch = client._dispatch

    def dispatch_and_reject(call):
        original_dispatch(call)
        if call.completed or call.via == "fallback":
            return
        wire_id = next(
            (w for w, c in client._by_wire_id.items() if c is call), None)
        if wire_id is not None:
            client.receive(busy(wire_id))

    client._dispatch = dispatch_and_reject
    call = client.discover(REQUEST, model_id="semantic")
    # Step in sub-fallback-window increments so the sim stops while the
    # fallback collection window is still open.
    for _ in range(400):
        if call.via == "fallback" or call.completed:
            break
        system.run_for(0.05)
    rejections = client.busy_rejections
    retries = client.query_retries
    assert rejections >= 2
    assert call.via == "fallback"
    assert not call.completed
    fallback_wire = next(
        w for w, c in client._by_wire_id.items() if c is call)

    # The saturated registry sheds the DECENTRAL_QUERY multicast too:
    # this BUSY must be ignored — no counter bump, no retry, no
    # resurrection.
    client.receive(busy(fallback_wire))
    assert client.busy_rejections == rejections
    assert client.query_retries == retries
    assert client._by_wire_id[fallback_wire] is call  # entry intact

    system.run_for(2.0)
    assert call.completed and call.completions == 1
    assert call.via == "fallback"
    # A straggler BUSY after completion is equally inert.
    client.receive(busy(fallback_wire))
    assert client.busy_rejections == rejections
    assert call.completions == 1
    from repro.core.invariants import check_invariants
    assert check_invariants(system) == []


def test_busy_for_unknown_wire_id_is_ignored(fast_config):
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=fast_config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = client.discover(REQUEST, model_id="semantic")
    system.run_for(4.0)
    assert call.completed
    # The attempt is long dead: a late BUSY for its wire id must not
    # resurrect the call or touch any counter.
    client.receive(Envelope(
        msg_type=protocol.BUSY, src=registry.node_id, dst=client.node_id,
        payload=protocol.BusyPayload(request_id=f"{call.query_id}/0",
                                     msg_type=protocol.QUERY,
                                     retry_after=0.2, queue_depth=1),
    ))
    assert client.busy_rejections == 0
    assert call.completions == 1
    from repro.core.invariants import check_invariants
    assert check_invariants(system) == []


def test_admission_intercepts_a_multicast_its_registry_has_no_handler_for():
    """Without anti-entropy a registry serves no ``antientropy-digest``,
    but a positive ``sync_cost`` still queues one: a multicast copy must
    reach the interceptor before the type's missing handler counts it."""
    config = DiscoveryConfig(admission=AdmissionPolicy(sync_cost=0.05))
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(), config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    assert protocol.ANTIENTROPY_DIGEST not in registry.handlers
    peer = system.network.add_node(Node("peer"), "lan-0")
    system.run(until=1.0)
    unknown = registry.unknown_messages
    peer.multicast(protocol.ANTIENTROPY_DIGEST)
    system.run_for(0.01)
    assert registry.admission.intercepted == 1
    assert registry.unknown_messages == unknown
    system.run_for(0.1)
    assert registry.admission.dispatched == 1
    assert registry.unknown_messages == unknown + 1
