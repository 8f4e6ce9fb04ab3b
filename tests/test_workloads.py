"""Tests for scenario builders, churn over their services, and query drivers."""

from __future__ import annotations

import pytest

from repro.core.config import DiscoveryConfig
from repro.errors import WorkloadError
from repro.netsim.faults import FaultPlan
from repro.workloads.queries import QueryDriver, QueryWorkload
from repro.workloads.scenarios import (
    ScenarioSpec,
    battlefield_scenario,
    build_scenario,
    crisis_scenario,
)
from repro.semantics.generator import battlefield_ontology


def test_crisis_spec_shape():
    spec = crisis_scenario(agencies=3, services_per_lan=2)
    assert len(spec.lan_names) == 3
    assert spec.total_services() == 6
    assert spec.ontology_factory().name == "emergency"


def test_crisis_agency_bounds():
    with pytest.raises(WorkloadError):
        crisis_scenario(agencies=0)
    with pytest.raises(WorkloadError):
        crisis_scenario(agencies=99)


def test_battlefield_spec_shape():
    spec = battlefield_scenario(units=2)
    assert spec.lan_names == ("unit-a", "unit-b")
    assert spec.federation == "chain"


def test_build_scenario_populates_everything():
    spec = crisis_scenario(agencies=2, services_per_lan=2, clients_per_lan=1)
    built = build_scenario(spec)
    assert len(built.registries) == 2
    assert len(built.services) == 4
    assert len(built.clients) == 2
    assert len(built.profiles) == 4
    built.system.run(until=2.0)
    assert all(s.tracker.current for s in built.services)


def test_build_scenario_without_registries():
    spec = crisis_scenario(agencies=1)
    built = build_scenario(spec, with_registries=False)
    assert built.registries == []


def test_build_scenario_unknown_federation():
    spec = ScenarioSpec(
        name="bad", lan_names=("l",), ontology_factory=battlefield_ontology,
        federation="pentagram",
    )
    # A single registry never federates, so the error needs >= 2.
    spec2 = ScenarioSpec(
        name="bad2", lan_names=("l1", "l2"),
        ontology_factory=battlefield_ontology, federation="pentagram",
    )
    with pytest.raises(WorkloadError):
        build_scenario(spec2)


def test_profile_of_lookup():
    built = build_scenario(crisis_scenario(agencies=1, services_per_lan=2))
    name = built.profiles[0].service_name
    assert built.profile_of(name) is built.profiles[0]
    with pytest.raises(WorkloadError):
        built.profile_of("no-such-service")


def test_scenario_determinism():
    a = build_scenario(battlefield_scenario(units=2, seed=5))
    b = build_scenario(battlefield_scenario(units=2, seed=5))
    assert [p.service_name for p in a.profiles] == \
        [p.service_name for p in b.profiles]
    assert [p.category for p in a.profiles] == [p.category for p in b.profiles]


# -- churn ---------------------------------------------------------------------

def test_service_churn_tracks_alive_and_dead():
    built = build_scenario(crisis_scenario(agencies=1, services_per_lan=4))
    system = built.system
    system.run(until=1.0)
    applied = FaultPlan.churn(
        [s.node_id for s in system.services], rate=2.0, window=20.0,
        start=system.sim.now,
    ).apply(system)
    system.run_for(20.0)
    dead = {s.profile.service_name for s in system.services if not s.alive}
    alive = {s.profile.service_name for s in system.services if s.alive}
    assert dead
    assert dead | alive == {p.service_name for p in built.profiles}
    assert not dead & alive
    assert applied.counts() == {"crash": len(dead)}


# -- query workloads ---------------------------------------------------------------

def test_anchored_workload_has_truth():
    built = build_scenario(battlefield_scenario(units=1, services_per_lan=5))
    workload = QueryWorkload.anchored(built.generator, built.profiles, 6)
    assert len(workload) == 6
    assert all(item.relevant for item in workload.labelled)


def test_anchored_workload_applies_cap():
    built = build_scenario(battlefield_scenario(units=1, services_per_lan=5))
    workload = QueryWorkload.anchored(built.generator, built.profiles, 3,
                                      max_results=2)
    assert all(item.request.max_results == 2 for item in workload.labelled)


def test_anchored_workload_requires_profiles():
    built = build_scenario(battlefield_scenario(units=1))
    with pytest.raises(WorkloadError):
        QueryWorkload.anchored(built.generator, [], 3)


def test_driver_plays_and_completes():
    built = build_scenario(battlefield_scenario(units=2, services_per_lan=3))
    workload = QueryWorkload.anchored(built.generator, built.profiles, 5)
    driver = QueryDriver(built.system, workload, interval=0.5, seed=1)
    issued = driver.play(settle=2.0, drain=10.0)
    assert len(issued) == 5
    assert len(driver.completed()) == 5
    assert all(q.call.hits for q in driver.completed())


def test_driver_requires_clients():
    spec = ScenarioSpec(
        name="no-clients", lan_names=("l",),
        ontology_factory=battlefield_ontology, clients_per_lan=0,
        services_per_lan=1,
    )
    built = build_scenario(spec)
    workload = QueryWorkload.anchored(built.generator, built.profiles, 1)
    driver = QueryDriver(built.system, workload)
    with pytest.raises(WorkloadError):
        driver.play()


def test_driver_skips_dead_clients():
    built = build_scenario(battlefield_scenario(units=1, services_per_lan=2,
                                                clients_per_lan=1))
    built.system.run(until=1.0)
    for client in built.clients:
        client.crash()
    workload = QueryWorkload.anchored(built.generator, built.profiles, 3)
    driver = QueryDriver(built.system, workload, interval=0.2, seed=1)
    issued = driver.play(settle=0.5, drain=2.0)
    assert issued == []
