"""Tests for the DiscoverySystem facade and strategy configurations."""

from __future__ import annotations

import pytest

from repro.core.config import (
    DiscoveryConfig,
    STRATEGY_EXPANDING_RING,
    STRATEGY_RANDOM_WALK,
)
from repro.core.system import DiscoverySystem, make_models
from repro.errors import ReproError
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest

REQUEST = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


def _radar(name="radar-1"):
    return ServiceProfile.build(name, "ncw:AirSurveillanceRadarService",
                                outputs=["ncw:AirTrack"])


def test_make_models_unknown_id():
    with pytest.raises(ReproError):
        make_models(None, include=("carrier-pigeon",))


def test_make_models_semantic_without_ontology():
    models = make_models(battlefield_ontology(), include=("semantic",),
                         with_ontology=False)
    assert not models[0].can_evaluate()


def test_node_id_generation_unique():
    system = DiscoverySystem(seed=1)
    system.add_lan("lan-0")
    a = system.add_registry("lan-0")
    b = system.add_registry("lan-0")
    assert a.node_id != b.node_id


def test_run_for_advances_clock():
    system = DiscoverySystem(seed=1)
    system.add_lan("lan-0")
    system.run(until=1.0)
    system.run_for(2.0)
    assert system.sim.now == 3.0


def test_discover_timeout_returns_incomplete():
    config = DiscoveryConfig(fallback_enabled=False, query_timeout=500.0,
                             beacon_interval=None)
    system = DiscoverySystem(seed=1, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    client = system.add_client("lan-0")
    system.run(until=2.0)
    registry.crash()
    call = system.discover(client, REQUEST, timeout=1.0)
    assert not call.completed


def test_cross_lan_discovery_through_chain():
    system = DiscoverySystem(seed=2, ontology=battlefield_ontology())
    for i in range(4):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
    system.federate_chain()
    system.add_service("lan-3", _radar())
    client = system.add_client("lan-0")
    system.run(until=3.0)
    call = system.discover(client, REQUEST)
    assert call.service_names() == ["radar-1"]


def test_federate_ring_closes_loop_and_queries_do_not_loop():
    system = DiscoverySystem(seed=2, ontology=battlefield_ontology())
    for i in range(3):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
    system.federate_ring()
    system.add_service("lan-1", _radar())
    client = system.add_client("lan-0")
    system.run(until=3.0)
    call = system.discover(client, REQUEST)
    # Loop avoidance: the unique hit appears exactly once.
    assert call.service_names() == ["radar-1"]


def test_expanding_ring_strategy_finds_nearby_first():
    config = DiscoveryConfig(strategy=STRATEGY_EXPANDING_RING,
                             default_ttl=2, aggregation_timeout=0.3)
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(),
                             config=config)
    for i in range(3):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
    system.federate_chain()
    system.add_service("lan-0", _radar("near"))
    system.add_service("lan-2", _radar("far"))
    client = system.add_client("lan-0")
    system.run(until=3.0)
    call = system.discover(client, REQUEST, timeout=30.0)
    # Ring stops at the first satisfied round: the local hit suffices.
    assert call.service_names() == ["near"]


def test_expanding_ring_widens_until_found():
    config = DiscoveryConfig(strategy=STRATEGY_EXPANDING_RING,
                             default_ttl=2, aggregation_timeout=0.3)
    system = DiscoverySystem(seed=3, ontology=battlefield_ontology(),
                             config=config)
    for i in range(3):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
    system.federate_chain()
    system.add_service("lan-2", _radar("far-only"))
    client = system.add_client("lan-0")
    system.run(until=3.0)
    call = system.discover(client, REQUEST, timeout=30.0)
    assert call.service_names() == ["far-only"]


def test_random_walk_strategy_completes():
    config = DiscoveryConfig(strategy=STRATEGY_RANDOM_WALK, default_ttl=4,
                             aggregation_timeout=0.3)
    system = DiscoverySystem(seed=4, ontology=battlefield_ontology(),
                             config=config)
    for i in range(3):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
    system.federate_ring()
    system.add_service("lan-1", _radar())
    client = system.add_client("lan-0")
    system.run(until=3.0)
    call = system.discover(client, REQUEST, timeout=30.0)
    assert call.completed


def test_traffic_snapshot_keys():
    system = DiscoverySystem(seed=1)
    system.add_lan("lan-0")
    snapshot = system.traffic()
    assert {"bytes_sent", "messages_sent"} <= set(snapshot)


def test_alive_services_listing():
    system = DiscoverySystem(seed=1, ontology=battlefield_ontology())
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    service = system.add_service("lan-0", _radar())
    system.run(until=1.0)
    assert system.alive_services() == [service]
    service.crash()
    assert system.alive_services() == []


def test_determinism_same_seed_same_traffic():
    def build_and_run(seed):
        system = DiscoverySystem(seed=seed, ontology=battlefield_ontology())
        for i in range(2):
            system.add_lan(f"lan-{i}")
            system.add_registry(f"lan-{i}")
        system.federate_chain()
        system.add_service("lan-1", _radar())
        client = system.add_client("lan-0")
        system.run(until=3.0)
        call = system.discover(client, REQUEST)
        return system.traffic(), tuple(call.service_names())

    assert build_and_run(99) == build_and_run(99)


def test_discover_timeout_clamps_to_deadline():
    # A call that cannot complete (registry crashed, query timeout far
    # beyond the discover budget) must stop the clock exactly at the
    # deadline instead of draining events arbitrarily far past it.
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=DiscoveryConfig(query_timeout=120.0))
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    client = system.add_client("lan-0")
    system.run(until=2.0)
    registry.crash()
    deadline = system.sim.now + 5.0
    call = system.discover(client, REQUEST, timeout=5.0)
    assert call.timed_out
    assert not call.completed
    assert system.sim.now == deadline
    # The client's own 120 s query timer is still queued, untouched.
    assert system.sim.pending() > 0


# -- one matchmaker per deployment ---------------------------------------------


def _semantic(node):
    return node.models.get("semantic")


def test_every_node_of_a_deployment_shares_one_matchmaker_and_reasoner():
    system = DiscoverySystem(seed=1, ontology=battlefield_ontology())
    system.add_lan("lan-0")
    nodes = [system.add_registry("lan-0"), system.add_standby_registry("lan-0"),
             system.add_service("lan-0", _radar()), system.add_service("lan-0", _radar("r2")),
             system.add_client("lan-0"), system.add_client("lan-0")]
    models = [_semantic(node) for node in nodes]
    assert all(model.matchmaker is system.matchmaker for model in models)
    assert all(model.reasoner is system.matchmaker.reasoner for model in models)
    assert system.matchmaker.reasoner.ontology is system.ontology
    # The model wrappers, and with them their counters, stay per node.
    assert len({id(model) for model in models}) == len(nodes)


def test_a_late_ontology_attaches_the_shared_matchmaker():
    system = DiscoverySystem(seed=1, ontology=battlefield_ontology())
    system.add_lan("lan-0")
    model = _semantic(system.add_registry("lan-0", with_ontology=False))
    assert not model.can_evaluate()
    model.accept_artifact(system.ontology)
    assert model.matchmaker is system.matchmaker
    # Another ontology is reasoned over by a matchmaker of its own.
    other = battlefield_ontology()
    model.attach_ontology(other)
    assert model.matchmaker is not system.matchmaker and model.ontology is other


def test_a_model_built_on_its_own_keeps_its_own_matchmaker():
    ontology = battlefield_ontology()
    a, b = (make_models(ontology, include=("semantic",))[0] for _ in range(2))
    assert a.matchmaker is not b.matchmaker
    assert a.reasoner is not b.reasoner
    assert DiscoverySystem(seed=1).matchmaker is None


def test_a_class_added_mid_run_is_seen_by_every_node_in_one_rebuild(monkeypatch):
    """Five services answer a LAN multicast on the one matchmaker: after
    ``add_class`` the query that reads the new class drops the pair tables
    once, and builds one request plan, for all five."""
    from repro.semantics.matchmaker import Matchmaker

    system = DiscoverySystem(seed=1, ontology=battlefield_ontology())
    system.add_lan("lan-0")
    for i in range(5):
        system.add_service("lan-0", _radar(f"radar-{i}"))
    client = system.add_client("lan-0")
    system.run(until=2.0)
    assert system.discover(client, REQUEST).via == "fallback"

    rebuilds = []
    table = Matchmaker._table

    def counted(self, requested):
        if self._tables_version != self.reasoner.ontology.version:
            rebuilds.append(self)
        return table(self, requested)

    monkeypatch.setattr(Matchmaker, "_table", counted)
    system.ontology.add_class("ncw:QuantumTrack", ["ncw:AirTrack"])
    matchmaker = system.matchmaker
    plans, evaluations = matchmaker.plans_built, matchmaker.evaluations
    request = ServiceRequest.build("ncw:SensorService", outputs=["ncw:QuantumTrack"])
    call = system.discover(client, request)
    assert sorted(call.service_names()) == [f"radar-{i}" for i in range(5)]
    assert rebuilds == [matchmaker]
    assert matchmaker.plans_built - plans == 1
    assert matchmaker.evaluations - evaluations == 5
