"""Tests for churn plans as recorded dynamics (one plan, any number of deployments)."""

from __future__ import annotations

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.errors import SimulationError
from repro.netsim.faults import KIND_CRASH, KIND_RESTART, FaultPlan
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile


def _ids(n):
    return [f"service-{i:03d}" for i in range(n)]


def _events(plan):
    return [(a.time, a.kind, a.node_id) for a in plan.actions()]


def _dead_at_end(plan):
    """Node ids the plan itself leaves down once its whole schedule has run."""
    down = set()
    for action in plan.actions():
        if action.kind == KIND_CRASH:
            down.add(action.node_id)
        else:
            down.discard(action.node_id)
    return frozenset(down)


def test_churn_trace_deterministic():
    a = FaultPlan.churn(_ids(5), rate=0.5, window=60.0, seed=9)
    b = FaultPlan.churn(_ids(5), rate=0.5, window=60.0, seed=9)
    assert _events(a) == _events(b)
    c = FaultPlan.churn(_ids(5), rate=0.5, window=60.0, seed=10)
    assert _events(a) != _events(c)


def test_churn_trace_sorted_and_in_window():
    plan = FaultPlan.churn(_ids(4), rate=1.0, window=30.0, seed=1, start=5.0)
    times = [a.time for a in plan.actions()]
    assert times and times == sorted(times)
    assert all(5.0 <= t < 35.0 for t in times)


def test_permanent_churn_never_restarts_same_index_twice():
    plan = FaultPlan.churn(_ids(3), rate=5.0, window=60.0, seed=2)
    assert all(a.kind == KIND_CRASH for a in plan.actions())
    crashed = [a.node_id for a in plan.actions()]
    assert len(crashed) == len(set(crashed)) <= 3


def test_transient_churn_interleaves_restarts():
    plan = FaultPlan.churn(_ids(3), rate=1.0, window=120.0, seed=3,
                           mean_downtime=5.0)
    assert {a.kind for a in plan.actions()} == {KIND_CRASH, KIND_RESTART}
    # Each restart belongs to an earlier crash of the same node.
    crashed_at: dict[str, float] = {}
    for action in plan.actions():
        if action.kind == KIND_CRASH:
            crashed_at.setdefault(action.node_id, action.time)
        else:
            assert crashed_at[action.node_id] < action.time


def test_churn_trace_validation():
    with pytest.raises(SimulationError):
        FaultPlan.churn([], rate=1.0, window=10.0)
    with pytest.raises(SimulationError):
        FaultPlan.churn(_ids(2), rate=0.0, window=10.0)


def _system(n_services=3):
    config = DiscoveryConfig(lease_duration=5.0, purge_interval=1.0,
                             beacon_interval=1.0)
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    for i in range(n_services):
        system.add_service("lan-0", ServiceProfile.build(
            f"radar-{i}", "ncw:RadarService", outputs=["ncw:AirTrack"]))
    return system


def test_apply_crashes_the_right_services():
    system = _system()
    ids = [service.node_id for service in system.services]
    (FaultPlan()
     .crash(2.0, ids[1])
     .crash(3.0, ids[2])
     .restart(4.0, ids[1])
     .apply(system))
    system.run(until=3.5)
    assert not system.services[1].alive
    assert not system.services[2].alive
    assert system.services[0].alive
    system.run(until=5.0)
    assert system.services[1].alive


def test_same_trace_on_two_systems_is_identical_dynamics():
    first, second = _system(), _system()
    ids = [service.node_id for service in first.services]
    assert ids == [service.node_id for service in second.services]
    plan = FaultPlan.churn(ids, rate=0.5, window=40.0, seed=6)

    def dead_after(system):
        plan.apply(system)
        system.run(until=60.0)
        return frozenset(s.node_id for s in system.services if not s.alive)

    dead = dead_after(first)
    assert dead and dead == dead_after(second) == _dead_at_end(plan)


def test_crash_count():
    plan = FaultPlan.churn(_ids(3), rate=2.0, window=60.0, seed=7)
    crashes = [a for a in plan.actions() if a.kind == KIND_CRASH]
    assert len(crashes) == len(plan) == 3
