"""Tests for federation maintenance and forwarding machinery."""

from __future__ import annotations

import pytest

from repro.core import protocol
from repro.core.config import (
    STRATEGY_EXPANDING_RING,
    STRATEGY_RANDOM_WALK,
    DiscoveryConfig,
)
from repro.core.federation import BREAKER_FAILURE_THRESHOLD
from repro.core.forwarding import PendingAggregation, SeenQueries
from repro.core.registry_node import RegistryNode
from repro.core.system import DiscoverySystem, make_models
from repro.descriptions.uri import UriDescription
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.registry.advertisements import Advertisement
from repro.registry.matching import QueryHit
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest
from tests.deployments import e7_ring


def _hit(ad_id, degree=1, score=0.5):
    ad = Advertisement(ad_id=ad_id, service_node="n", service_name=ad_id,
                       endpoint="e", model_id="uri", description=UriDescription("d", "e"))
    return QueryHit(advertisement=ad, degree=degree, score=score)


@pytest.fixture
def host():
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_lan("lan")
    return net.add_node(Node("host"), "lan")


# -- SeenQueries ---------------------------------------------------------------

def test_seen_queries_dedup():
    clock = [0.0]
    seen = SeenQueries(lambda: clock[0])
    assert seen.check_and_mark("q1")
    assert not seen.check_and_mark("q1")
    assert seen.check_and_mark("q2")
    assert "q1" in seen


def test_seen_queries_prunes_old_entries():
    clock = [0.0]
    seen = SeenQueries(lambda: clock[0], retention=10.0)
    for i in range(1100):
        seen.check_and_mark(f"q{i}")
    clock[0] = 100.0
    seen.check_and_mark("fresh")
    assert len(seen) < 1100


# -- PendingAggregation -----------------------------------------------------------

def test_pending_completes_when_all_respond(host):
    done = []
    pending = PendingAggregation(
        host, query_id="q", local_hits=[_hit("ad-local")], outstanding=2,
        timeout=5.0, max_results=None,
        on_complete=lambda hits, responders: done.append((hits, responders)),
    )
    pending.add_response(protocol.ResponsePayload("q", (_hit("ad-a"),), 1))
    assert not pending.done
    pending.add_response(protocol.ResponsePayload("q", (_hit("ad-b"),), 2))
    assert pending.done
    hits, responders = done[0]
    assert {h.advertisement.ad_id for h in hits} == {"ad-local", "ad-a", "ad-b"}
    assert responders == 4  # self + 1 + 2


def test_pending_timeout_completes_with_partial(host):
    done = []
    PendingAggregation(
        host, query_id="q", local_hits=[_hit("ad-local")], outstanding=3,
        timeout=1.0, max_results=None,
        on_complete=lambda hits, responders: done.append(hits),
    )
    host.sim.run(until=2.0)
    assert len(done) == 1
    assert [h.advertisement.ad_id for h in done[0]] == ["ad-local"]


def test_pending_completes_exactly_once(host):
    done = []
    pending = PendingAggregation(
        host, query_id="q", local_hits=[], outstanding=1,
        timeout=1.0, max_results=None,
        on_complete=lambda hits, responders: done.append(1),
    )
    pending.add_response(protocol.ResponsePayload("q", (), 1))
    host.sim.run(until=2.0)  # the timeout must not re-fire
    pending.add_response(protocol.ResponsePayload("q", (), 1))  # stray late reply
    assert done == [1]


def test_pending_applies_response_control(host):
    done = []
    pending = PendingAggregation(
        host, query_id="q", local_hits=[_hit(f"ad-{i}") for i in range(5)],
        outstanding=1, timeout=1.0, max_results=2,
        on_complete=lambda hits, responders: done.append(hits),
    )
    pending.add_response(protocol.ResponsePayload("q", (_hit("ad-x", 3),), 1))
    assert len(done[0]) == 2
    assert done[0][0].advertisement.ad_id == "ad-x"  # highest degree first


# -- the expanding ring, driven through a registry ------------------------------------

def _radar(name):
    return ServiceProfile.build(name, "ncw:RadarService", outputs=["ncw:AirTrack"])


def _ring(radar_lans, *, ttl=4):
    """A chain of four registries (``lan-0`` … ``lan-3``) searching by
    expanding ring with default TTL ``ttl``, a radar on each LAN in
    ``radar_lans`` and a client on ``lan-0``. Returns the system, the
    client, and the ``(query id, ttl)`` of every QUERY_FORWARD the
    client's registry sends."""
    config = DiscoveryConfig(strategy=STRATEGY_EXPANDING_RING, default_ttl=ttl,
                             aggregation_timeout=0.3, ping_interval=50.0,
                             signalling_interval=None)
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(), config=config)
    for i in range(4):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
    for lan in radar_lans:
        system.add_service(f"lan-{lan}", _radar(f"radar-{lan}"))
    system.federate_chain()
    client = system.add_client("lan-0")
    system.run(until=3.0)
    entry, forwards = system.registries[0], []
    send = entry.send

    def logged_send(dst, msg_type, payload=None, **kwargs):
        if msg_type == protocol.QUERY_FORWARD:
            forwards.append((payload.query_id, payload.ttl))
        return send(dst, msg_type, payload, **kwargs)

    entry.send = logged_send
    return system, client, forwards


def _ring_query(system, client, *, max_results=None):
    call = system.discover(client, ServiceRequest.build(
        "ncw:SensorService", outputs=["ncw:Track"], max_results=max_results))
    assert call.completed
    return call, f"{call.query_id}/1"


def test_ring_round_ids_differ_per_round():
    system, client, forwards = _ring([2])
    call, wire_id = _ring_query(system, client)
    # Round 0 (TTL 0) asks nobody; rounds 1 and 2 flood under their own ids.
    assert forwards == [(f"{wire_id}#r1", 0), (f"{wire_id}#r2", 1)]
    assert sorted(call.service_names()) == ["radar-2"]


def test_ring_satisfied_by_max_results():
    system, client, forwards = _ring([1, 2, 3])
    call, wire_id = _ring_query(system, client, max_results=2)
    # One hit after round 1 is not enough; two after round 2 are, so the
    # radar three hops out is never reached.
    assert sorted(call.service_names()) == ["radar-1", "radar-2"]
    assert [qid for qid, _ in forwards] == [f"{wire_id}#r1", f"{wire_id}#r2"]
    assert call.responders == 3  # rounds run


def test_ring_default_target_is_one_hit():
    system, client, forwards = _ring([1, 2])
    call, wire_id = _ring_query(system, client)
    assert sorted(call.service_names()) == ["radar-1"]
    assert forwards == [(f"{wire_id}#r1", 0)]
    assert call.responders == 2


def test_ring_advance_exhausts():
    system, client, forwards = _ring([], ttl=2)
    call, wire_id = _ring_query(system, client)
    # Nothing matches anywhere: every round of the schedule (0, 1, 2)
    # runs, then the (empty) answer leaves.
    assert call.hits == []
    assert forwards == [(f"{wire_id}#r1", 0), (f"{wire_id}#r2", 1)]
    assert call.responders == 3


def test_ring_merged_dedupes_across_rounds():
    system, client, _ = _ring([0, 1], ttl=1)
    call, _ = _ring_query(system, client, max_results=3)
    # The local radar is a hit of both rounds, and is answered once.
    assert sorted(call.service_names()) == ["radar-0", "radar-1"]
    assert len(call.hits) == 2


# -- PendingAggregation without a target set (a random walk) ---------------------------

def test_query_ttl_bounds_the_ring():
    # The configured TTL is 4, but this query's own TTL of 2 is the
    # ring's last round: rounds 0, 1 and 2 run and nothing further.
    system, client, forwards = _ring([])
    call = system.discover(client, ServiceRequest.build(
        "ncw:SensorService", outputs=["ncw:Track"]), ttl=2)
    assert call.completed and call.hits == []
    wire_id = f"{call.query_id}/1"
    assert forwards == [(f"{wire_id}#r1", 0), (f"{wire_id}#r2", 1)]
    assert call.responders == 3


def test_query_ttl_bounds_the_walk():
    # Six registries in a ring and nothing to find, so a walk goes as far
    # as it may: under TTL 3 it visits three registries, handing on twice.
    config = DiscoveryConfig(strategy=STRATEGY_RANDOM_WALK, aggregation_timeout=0.3,
                             ping_interval=50.0, signalling_interval=None)
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(), config=config)
    for i in range(6):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
    system.federate_ring()
    client = system.add_client("lan-0")
    system.run(until=3.0)
    walks = []
    for registry in system.registries:
        def logged_send(dst, msg_type, payload=None, *, _send=registry.send, **kwargs):
            if msg_type == protocol.WALK:
                walks.append(payload.remaining)
            return _send(dst, msg_type, payload, **kwargs)
        registry.send = logged_send
    call = system.discover(client, ServiceRequest.build(
        "ncw:SensorService", outputs=["ncw:Track"]), ttl=3)
    assert call.completed and call.hits == []
    assert walks == [2, 1]


def _walk_hits(*hits):
    """What a visited registry reports: its matches, one responder."""
    return protocol.ResponsePayload("q", hits, 1)


def test_walk_collects_until_end(host):
    done = []
    walk = PendingAggregation(
        host, query_id="q", local_hits=[_hit("ad-0")], timeout=10.0,
        max_results=None,
        on_complete=lambda hits, responders: done.append((hits, responders)),
    )
    walk.add_response(_walk_hits(_hit("ad-1")))
    walk.add_response(_walk_hits(_hit("ad-2")))
    assert not walk.done  # no count of answers completes a walk
    walk.flush()
    hits, responders = done[0]
    assert {h.advertisement.ad_id for h in hits} == {"ad-0", "ad-1", "ad-2"}
    assert responders == 3


def test_walk_timeout_completes(host):
    done = []
    PendingAggregation(
        host, query_id="q", local_hits=[], timeout=1.0, max_results=None,
        on_complete=lambda hits, responders: done.append(hits),
    )
    host.sim.run(until=2.0)
    assert done == [[]]


def test_walk_ignores_hits_after_done(host):
    done = []
    walk = PendingAggregation(
        host, query_id="q", local_hits=[], timeout=10.0, max_results=None,
        on_complete=lambda hits, responders: done.append(hits),
    )
    walk.flush()
    walk.add_response(_walk_hits(_hit("ad-late")))
    walk.flush()
    assert done == [[]]


# -- Federation behaviour (integration-ish, via real registries) ---------------------------

def _two_registries(config=None):
    system = DiscoverySystem(seed=3, config=config)
    system.add_lan("lan-a")
    system.add_lan("lan-b")
    ra = system.add_registry("lan-a")
    rb = system.add_registry("lan-b")
    return system, ra, rb


def test_join_is_bidirectional():
    system, ra, rb = _two_registries()
    system.federate(ra, rb)
    system.run(until=1.0)
    assert rb.node_id in ra.federation.neighbors
    assert ra.node_id in rb.federation.neighbors


def test_same_lan_registries_auto_federate():
    system = DiscoverySystem(seed=3)
    system.add_lan("lan-a")
    r1 = system.add_registry("lan-a")
    r2 = system.add_registry("lan-a")
    system.run(until=2.0)
    assert r2.node_id in r1.federation.neighbors
    assert r1.federation.gateway() == min(r1.node_id, r2.node_id)
    assert r1.federation.is_gateway() or r2.federation.is_gateway()


def test_ping_failure_detector_drops_dead_neighbor():
    config = DiscoveryConfig(ping_interval=1.0, ping_failure_threshold=2)
    system, ra, rb = _two_registries(config)
    system.federate(ra, rb)
    system.run(until=2.0)
    rb.crash()
    system.run_for(10.0)
    assert rb.node_id not in ra.federation.neighbors


def test_reconnect_after_neighbor_loss_keeps_network_connected():
    config = DiscoveryConfig(ping_interval=1.0, ping_failure_threshold=2,
                             signalling_interval=2.0)
    system = DiscoverySystem(seed=3, config=config)
    for i in range(3):
        system.add_lan(f"lan-{i}")
    regs = [system.add_registry(f"lan-{i}") for i in range(3)]
    # Chain: r0 - r1 - r2; killing the middle must trigger r0/r2 to re-wire.
    system.federate_chain()
    system.run(until=6.0)  # let gossip spread knowledge of all three
    regs[1].crash()
    system.run_for(15.0)
    assert regs[2].node_id in regs[0].federation.neighbors \
        or regs[0].node_id in regs[2].federation.neighbors


def test_graceful_leave_removes_link():
    system, ra, rb = _two_registries()
    system.federate(ra, rb)
    system.run(until=1.0)
    ra.federation.leave()
    system.run_for(1.0)
    assert ra.node_id not in rb.federation.neighbors
    assert not ra.federation.neighbors


def test_gossip_spreads_known_registries():
    config = DiscoveryConfig(signalling_interval=1.0)
    system = DiscoverySystem(seed=3, config=config)
    for i in range(3):
        system.add_lan(f"lan-{i}")
    regs = [system.add_registry(f"lan-{i}") for i in range(3)]
    system.federate_chain()  # r0-r1, r1-r2: r0 never directly met r2
    system.run(until=5.0)
    assert regs[2].node_id in regs[0].federation.known


def test_forward_targets_exclude_sender():
    system, ra, rb = _two_registries()
    system.federate(ra, rb)
    system.run(until=1.0)
    assert ra.federation.forward_targets({rb.node_id}) == []
    assert ra.federation.forward_targets(set()) == [rb.node_id]


# -- SeenQueries hard bound ----------------------------------------------------

def test_seen_queries_bounded_by_max_entries():
    clock = [0.0]
    seen = SeenQueries(lambda: clock[0], retention=1000.0, max_entries=10)
    for i in range(25):
        assert seen.check_and_mark(f"q{i}")
    assert len(seen) == 10
    assert seen.evictions == 15
    # The survivors are the most recent ids; the evicted oldest ones
    # would be treated as new again.
    assert "q24" in seen and "q14" not in seen
    assert not seen.check_and_mark("q24")


def test_seen_queries_unbounded_when_disabled():
    clock = [0.0]
    seen = SeenQueries(lambda: clock[0], retention=1000.0, max_entries=None)
    for i in range(2000):
        seen.check_and_mark(f"q{i}")
    assert len(seen) == 2000
    assert seen.evictions == 0


# -- Federation leave / re-join ------------------------------------------------

def test_graceful_leave_flushes_in_flight_walk():
    # A walk is an aggregation like any fan-out, so a departing
    # coordinator answers it at once with what has arrived instead of
    # leaving the client to its query timeout.
    config = DiscoveryConfig(strategy=STRATEGY_RANDOM_WALK, default_ttl=3,
                             aggregation_timeout=1.0, ping_interval=50.0,
                             signalling_interval=None)
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(),
                             config=config)
    for i in range(3):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
    system.federate_chain()
    client = system.add_client("lan-0")
    system.run(until=2.0)
    coordinator, first_hop, _ = system.registries
    first_hop.crash()  # the walk dies there: only its 3 s timeout is left
    call = client.discover(ServiceRequest.build(
        "ncw:SensorService", outputs=["ncw:Track"]))
    system.run_for(0.5)
    assert list(coordinator.queries._pending) and not call.completed
    coordinator.federation.leave()
    assert not coordinator.queries._pending
    system.run_for(0.1)
    assert call.completed and call.latency < 1.0


def test_leave_and_rejoin_resets_failure_detector_state():
    config = DiscoveryConfig(ping_interval=1.0, ping_failure_threshold=3)
    system, ra, rb = _two_registries(config)
    system.federate(ra, rb)
    system.run(until=1.0)
    # Accumulate suspicion against rb just short of removal.
    ra.federation._missed_pongs[rb.node_id] = 2
    ra.federation.record_neighbor_failure(rb.node_id)
    assert rb.node_id in ra.federation.failures
    ra.federation.leave()
    system.run_for(1.0)
    # The links AND the per-neighbor detector state are gone on both
    # sides: nothing stale survives the departure.
    assert not ra.federation.neighbors
    assert rb.node_id not in ra.federation._missed_pongs
    assert not ra.federation.failures
    assert ra.node_id not in rb.federation.neighbors
    assert ra.node_id not in rb.federation._missed_pongs
    assert ra.node_id not in rb.federation.failures
    # Re-joining starts from a clean slate ...
    ra.federation.join(rb.node_id)
    system.run_for(1.0)
    assert rb.node_id in ra.federation.neighbors
    assert ra.node_id in rb.federation.neighbors
    # (at most one in-flight ping may be pending at this instant)
    assert ra.federation._missed_pongs.get(rb.node_id, 0) <= 1
    # ... and the link survives pings it would have failed with the
    # stale pre-leave counter still in place.
    system.run_for(3.0)
    assert rb.node_id in ra.federation.neighbors


# -- the ping round probes every suspected peer ------------------------------

def test_ping_round_pings_a_suspected_peer_until_its_pong_closes_the_breaker(monkeypatch):
    # ra's neighbor is rb; rc is no neighbor of ra, only a peer the
    # fan-out stopped waiting on (a shard replica, a routing target).
    config = DiscoveryConfig(ping_interval=1.0, signalling_interval=None)
    system = DiscoverySystem(seed=3, config=config)
    for lan in ("lan-a", "lan-b", "lan-c"):
        system.add_lan(lan)
    ra, rb, rc = (system.add_registry(lan) for lan in ("lan-a", "lan-b", "lan-c"))
    system.federate(ra, rb)
    system.run(until=0.5)
    rc.crash()
    # Both breakers open: the neighbor's too, which its next pong closes.
    for _ in range(3):
        ra.federation.record_neighbor_failure(rb.node_id)
        ra.federation.record_neighbor_failure(rc.node_id)
    assert not ra.federation.breaker_allows(rc.node_id)
    pings: list[tuple[float, str]] = []
    send = ra.send

    def recording_send(dst, msg_type, *args, **kwargs):
        if msg_type == protocol.REGISTRY_PING:
            pings.append((system.sim.now, dst))
        return send(dst, msg_type, *args, **kwargs)

    monkeypatch.setattr(ra, "send", recording_send)
    system.run_for(3.0)
    # Each round pings the neighbor once and the suspected peer once.
    rounds = sorted({t for t, _ in pings})
    assert len(rounds) == 3
    for t in rounds:
        assert sorted(dst for at, dst in pings if at == t) == [rb.node_id, rc.node_id]
    assert rc.node_id not in ra.federation.neighbors
    assert ra.federation.breaker_allows(rb.node_id)
    assert not ra.federation.breaker_allows(rc.node_id)

    closes = system.network.metrics.tallies("recovery").get("breaker-close", 0)
    rc.restart()
    system.run_for(1.0)
    assert ra.federation.breaker_allows(rc.node_id)
    assert system.network.metrics.tallies("recovery")["breaker-close"] == closes + 1
    # A closed breaker is not pinged: only the neighbor is, from now on.
    pings.clear()
    system.run_for(2.0)
    assert [dst for _, dst in pings] == [rb.node_id, rb.node_id]


def test_a_rejoin_closes_the_breaker_its_aggregation_timeouts_opened():
    """A neighbor whose breaker aggregation timeouts opened restarts and
    re-joins before the ping round has dropped it. Its join is proof of
    life: the very next fan-out waits on it again, instead of skipping it
    until the next pong, up to one ``ping_interval`` later."""
    config = DiscoveryConfig(ping_interval=10.0, signalling_interval=None,
                             aggregation_timeout=0.5)
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(), config=config)
    system.add_lan("lan-a")
    system.add_lan("lan-b")
    ra = system.add_registry("lan-a")
    rb = system.add_registry("lan-b", seeds=(ra.node_id,))
    client = system.add_client("lan-a")
    system.run(until=1.0)
    assert rb.node_id in ra.federation.neighbors
    rb.crash()
    request = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])
    while ra.federation.breaker_allows(rb.node_id):
        system.discover(client, request, timeout=5.0)
    opened_at = system.sim.now
    rb.restart()
    system.run_for(0.2)  # the join and its ack, well before the next ping round
    assert rb.node_id in ra.federation.neighbors
    assert ra.federation.breaker_allows(rb.node_id)
    call = system.discover(client, request, timeout=5.0)
    assert call.responders == 2  # rb was waited on, not skipped
    assert system.sim.now < opened_at + config.ping_interval / 2


# -- SeenQueries eviction vs in-flight aggregations ----------------------------

def test_seen_queries_eviction_spares_protected_ids():
    clock = [0.0]
    live = {"q1", "q3"}
    seen = SeenQueries(lambda: clock[0], retention=1000.0, max_entries=4,
                       protected=lambda q: q in live)
    for i in range(1, 5):
        assert seen.check_and_mark(f"q{i}")
    # Table full; the next insert must evict — but the oldest two ids
    # are live aggregations, so the evictor skips to q2. Evicting a
    # live id would let a late duplicate re-enter check_and_mark and
    # double-count into the pending aggregation.
    assert seen.check_and_mark("q5")
    assert "q1" in seen and "q3" in seen
    assert "q2" not in seen
    assert seen.evictions == 1
    # Still-live duplicates stay duplicates even under table pressure.
    assert not seen.check_and_mark("q1")
    assert not seen.check_and_mark("q3")


def test_seen_queries_exceeds_bound_rather_than_evicting_live_ids():
    clock = [0.0]
    seen = SeenQueries(lambda: clock[0], retention=1000.0, max_entries=3,
                       protected=lambda q: True)
    for i in range(6):
        assert seen.check_and_mark(f"q{i}")
    # Every entry is a live aggregation: the hard bound yields (it is
    # transiently exceeded) instead of breaking an in-flight query.
    assert len(seen) == 6
    assert seen.evictions == 0
    assert all(f"q{i}" in seen for i in range(6))


def test_seen_queries_prune_spares_protected_ids():
    clock = [0.0]
    live = {"slow"}
    seen = SeenQueries(lambda: clock[0], retention=10.0, max_entries=None,
                       protected=lambda q: q in live)
    seen.check_and_mark("slow")
    # Enough entries to cross the lazy-prune threshold (the sweep only
    # runs above 1024 entries).
    for i in range(1100):
        seen.check_and_mark(f"fast{i}")
    clock[0] = 60.0  # far past the retention horizon
    seen.check_and_mark("new")
    # The expired-but-live aggregation id survives the prune; the dead
    # ones go.
    assert "slow" in seen
    assert "fast0" not in seen
    assert len(seen) == 2  # slow + new
    assert not seen.check_and_mark("slow")


def test_seen_queries_protected_eviction_at_default_bound():
    # The production configuration: the default 4096-entry bound under a
    # flood, with a handful of in-flight ids scattered through the
    # oldest region of the table.
    clock = [0.0]
    live = {f"live{i}" for i in range(5)}
    seen = SeenQueries(lambda: clock[0], retention=1e9,
                       protected=lambda q: q in live)
    for live_id in sorted(live):
        assert seen.check_and_mark(live_id)
    for i in range(8000):
        assert seen.check_and_mark(f"flood{i}")
    # The bound holds (the evictor takes the oldest *non-protected*
    # entries instead) ...
    assert len(seen) == 4096
    # ... and every live id survived 8000 insertions' worth of eviction
    # pressure; only flood ids were evicted.
    for live_id in live:
        assert live_id in seen
        assert not seen.check_and_mark(live_id)


def test_each_flooded_discover_on_a_settled_ring_sends_its_closed_form_counts():
    """Flooding on E7's three-registry ring, settled and fault-free: one
    ``query`` to the coordinator, a ``query-forward`` to each neighbour
    and one onward from each (4), and a ``query-response`` per forward
    plus the one to the client (5) — discover after discover."""
    deployment = e7_ring()
    stats = deployment.system.network.stats
    for i in range(60):
        before = stats.snapshot()
        deployment.discover(1)
        moved = stats.delta_since(before)["by_type"]
        counts = {kind: moved.get(kind, {}).get("count", 0)
                  for kind in (protocol.QUERY, protocol.QUERY_FORWARD, protocol.QUERY_RESPONSE)}
        assert counts == {protocol.QUERY: 1, protocol.QUERY_FORWARD: 4,
                          protocol.QUERY_RESPONSE: 5}, i


def test_a_flooded_discover_under_open_breakers_sends_its_closed_form_counts():
    """The same ring with both other registries' breakers open toward one
    live registry. A discover coordinated by either of them forwards only
    to the other, which skips the live one too: 1 ``query``, 1
    ``query-forward``, 2 ``query-response``, 2 ``breaker-skip``
    recoveries, and one WAN round trip instead of two. A discover
    coordinated by the live registry still floods (1 / 4 / 5). The next
    ping round's pong closes both breakers, and every discover is back to
    1 / 4 / 5."""
    deployment = e7_ring()
    system = deployment.system
    stats, metrics = system.network.stats, system.network.metrics
    live = system.registries[2]
    for registry in system.registries[:2]:
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            registry.federation.record_neighbor_failure(live.node_id)

    def discover(i):
        before = stats.snapshot()
        skips = metrics.tallies("recovery").get("breaker-skip", 0)
        client = system.clients[i % len(system.clients)]
        call = system.discover(client, deployment.requests[i % len(deployment.requests)])
        moved = stats.delta_since(before)["by_type"]
        counts = tuple(moved.get(kind, {}).get("count", 0)
                       for kind in (protocol.QUERY, protocol.QUERY_FORWARD,
                                    protocol.QUERY_RESPONSE))
        skipped = metrics.tallies("recovery").get("breaker-skip", 0) - skips
        return client.tracker.current, counts, skipped, round(call.latency, 3)

    flooded = ((1, 4, 5), 0, 0.202)
    for i in range(6):
        coordinator, *seen = discover(i)
        expected = flooded if coordinator == live.node_id else ((1, 1, 2), 2, 0.102)
        assert tuple(seen) == expected, i
    assert [r.federation.breaker_states() for r in system.registries] == [
        {live.node_id: "open"}, {live.node_id: "open"}, {}]

    system.run_for(system.config.ping_interval)
    assert [r.federation.breaker_states() for r in system.registries] == [
        {live.node_id: "closed"}, {live.node_id: "closed"}, {}]
    for i in range(6):
        assert tuple(discover(i)[1:]) == flooded, i
