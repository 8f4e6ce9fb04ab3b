"""Tests for the runtime health layer: recorders, SLOs, the detector table.

Covers the instruments in isolation (flight-recorder ring semantics,
time-weighted gauge means, Prometheus rendering), every detector row's
rising-edge behavior through the monitor's tick (each row names one of
these tests as its self-test), and the wired monitor on a real
deployment: inert-by-default, crash dumps, and same-seed byte-identity
of dumps — including across a crash/restart with durability enabled.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.durability import DurabilityConfig
from repro.core.system import DiscoverySystem
from repro.errors import ReproError
from repro.experiments import e20_health
from repro.obs import health, slo
from repro.obs.health import (
    FlightRecorder,
    HealthConfig,
    HealthMonitor,
)
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.slo import MIN_SAMPLES
from repro.obs.tracing import TraceRecorder
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest

REQUEST = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


def _monitor(**overrides):
    """A manually clocked monitor over a fresh metrics registry."""
    state = {"t": 0.0}
    metrics = MetricsRegistry()
    config = HealthConfig(enabled=True, **overrides)
    monitor = HealthMonitor(lambda: state["t"], metrics, config=config)
    return state, metrics, monitor


def _heard(state, monitor) -> TraceRecorder:
    """A recorder on the monitor's clock that the monitor observes, as
    :meth:`HealthMonitor.attach` arranges on a deployment."""
    trace = TraceRecorder(lambda: state["t"])
    trace.listen(monitor._on_trace_record)
    return trace


def _system(health: HealthConfig, *, seed: int = 0,
            durability: DurabilityConfig | None = None) -> DiscoverySystem:
    """A one-LAN deployment: registry + one service + one client."""
    config = DiscoveryConfig(
        health=health,
        durability=durability or DurabilityConfig(),
        beacon_interval=1.0,
        lease_duration=4.0,
        purge_interval=0.5,
    )
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    system.add_service("lan-0", ServiceProfile.build(
        "radar-0", "ncw:RadarService", outputs=["ncw:AirTrack"]))
    system.add_client("lan-0")
    return system


# -- config validation -------------------------------------------------------


def test_default_health_config_is_disabled():
    assert HealthConfig().enabled is False
    assert DiscoveryConfig().health.enabled is False


# -- flight recorder ---------------------------------------------------------


def test_flight_recorder_evicts_oldest_first():
    recorder = FlightRecorder("n1", capacity=3)
    for i in range(5):
        recorder.note({"t": float(i), "kind": "mark", "seq": i})
    assert recorder.appended == 5
    assert recorder.evicted == 2
    assert [r["seq"] for r in recorder.records] == [2, 3, 4]


def test_flight_recorder_dump_is_byte_stable():
    recorder = FlightRecorder("n1", capacity=4)
    recorder.note({"b": 2, "a": 1, "t": 0.5})
    recorder.note({"t": 1.0, "kind": "event"})
    dump = recorder.dump_jsonl()
    assert dump == recorder.dump_jsonl()
    lines = dump.splitlines()
    assert lines[0] == '{"a":1,"b":2,"t":0.5}'  # sorted keys, no spaces
    assert [json.loads(line) for line in lines]


def test_flight_recorder_truncated_dump_holds_newest():
    recorder = FlightRecorder("n1", capacity=2)
    for i in range(4):
        recorder.note({"seq": i})
    assert recorder.dump_jsonl() == '{"seq":2}\n{"seq":3}'


# -- gauge time-weighted mean ------------------------------------------------


def test_gauge_mean_over_weights_by_time_held():
    gauge = Gauge("depth")
    gauge.set(0.0, now=0.0)
    gauge.set(10.0, now=5.0)
    assert gauge.mean_over(10.0, now=10.0) == pytest.approx(5.0)
    assert gauge.mean_over(5.0, now=10.0) == pytest.approx(10.0)


def test_gauge_mean_over_is_zero_weighted_before_first_set():
    gauge = Gauge("depth")
    gauge.set(4.0, now=8.0)
    # [2, 8) carries the initial 0, [8, 10) carries 4 -> 8/8 = 1.
    assert gauge.mean_over(8.0, now=10.0) == pytest.approx(1.0)


def test_gauge_mean_over_without_history_returns_current_value():
    gauge = Gauge("depth")
    gauge.set(5.0)  # untimed: snapshot-only behavior
    assert gauge.last_set is None
    assert gauge.mean_over(3.0, now=10.0) == 5.0


def test_gauge_mean_over_rejects_bad_window():
    with pytest.raises(ReproError):
        Gauge("depth").mean_over(0.0, now=1.0)


def test_gauge_add_feeds_history():
    gauge = Gauge("depth")
    gauge.add(2.0, now=1.0)
    gauge.add(2.0, now=2.0)
    assert gauge.value == 4.0
    assert gauge.last_set == 2.0


# -- prometheus rendering ----------------------------------------------------


def test_render_prom_exact_format():
    registry = MetricsRegistry()
    registry.counter("admission.shed").inc(3)
    registry.gauge("registry.queue_depth").set(2.0)
    histogram = registry.histogram("query.lat", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        histogram.observe(value)
    assert registry.render_prom() == (
        "# TYPE admission_shed counter\n"
        "admission_shed 3\n"
        "# TYPE registry_queue_depth gauge\n"
        "registry_queue_depth 2\n"
        "# TYPE query_lat histogram\n"
        'query_lat_bucket{le="0.1"} 1\n'
        'query_lat_bucket{le="1"} 2\n'
        'query_lat_bucket{le="+Inf"} 3\n'
        "query_lat_sum 5.55\n"
        "query_lat_count 3\n"
    )


def test_render_prom_empty_registry_is_empty():
    assert MetricsRegistry().render_prom() == ""


# -- the detector table -------------------------------------------------------

ROWS = health.detectors(HealthConfig())


def _assert_alarms(monitor, *names):
    """The monitor raised exactly ``names``, in order, and counted each in
    ``health.alarm.<name>``."""
    assert [a.name for a in monitor.alarms] == list(names)
    for name in set(names):
        assert monitor.metrics.counters[f"health.alarm.{name}"].value == names.count(name)


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_every_row_names_a_selftest_that_trips_and_rearms_it(row, monkeypatch):
    """A row's ``selftest`` is a test of this module that asserts (through
    :func:`_assert_alarms`, names and counters) every alarm the row raises,
    and one of them twice: alarms fire on the rising edge only, so the
    second one shows the edge re-armed."""
    selftest = globals().get(row.selftest)
    assert callable(selftest) and row.selftest.startswith("test_"), row.selftest
    asserted: list[tuple[str, ...]] = []
    check = _assert_alarms

    def recording(monitor, *names):
        asserted.append(tuple(n for n in names if n in row.raises))
        check(monitor, *names)

    monkeypatch.setitem(globals(), "_assert_alarms", recording)
    selftest()
    assert {name for names in asserted for name in names} == set(row.raises)
    assert max(map(len, asserted)) >= 2


def test_every_alarm_e20_expects_is_raised_by_a_row():
    raised = {name for row in ROWS for name in row.raises}
    assert len(raised) == sum(len(row.raises) for row in ROWS)
    for _phase, _start, _end, expected in e20_health.PHASES:
        assert set(expected) <= raised, expected


# -- SLO rows (through the monitor's tick) -----------------------------------
#
# The query objective: 5% error budget, 2 s at p95. With the slow window at
# 10 s, the fast one is FAST_WINDOW (5 s).


def _slo_monitor():
    """A monitor whose SLO windows were built with a 10 s slow window."""
    with mock.patch.object(slo, "SLOW_WINDOW", 10.0):
        state, _metrics, monitor = _monitor()
    return state, monitor


def _record(state, monitor, t, n, *, ok, latency=0.0):
    state["t"] = t
    for _ in range(n):
        monitor.record_request("query", ok=ok, latency=latency)


def test_slo_burn_breaches_in_both_windows():
    """Six failures trip ``slo-burn`` (both windows all errors); once the
    windows empty the class re-arms, and slow answers trip ``slo-latency``."""
    state, monitor = _slo_monitor()
    for i in range(6):
        _record(state, monitor, 1.0 + i * 0.5, 1, ok=False)
    monitor.tick()
    (alarm,) = monitor.alarms
    assert alarm.details == {"class": "query", "fast_burn": 20.0, "slow_burn": 20.0,
                             "latency": 0.0}
    state["t"] = 30.0
    monitor.tick()  # both windows empty: the edge clears
    _record(state, monitor, 31.0, 6, ok=True, latency=3.0)
    monitor.tick()
    _assert_alarms(monitor, "slo-burn", "slo-latency")


def test_slo_needs_min_samples_to_breach():
    state, monitor = _slo_monitor()
    _record(state, monitor, 1.0, MIN_SAMPLES - 1, ok=False)
    monitor.tick()
    assert monitor.alarms == []
    _record(state, monitor, 1.0, 1, ok=False)
    monitor.tick()
    _assert_alarms(monitor, "slo-burn")


def test_slo_slow_window_suppresses_blips():
    """Six errors make the fast window all errors; after 80 good answers
    the slow window burns at 6/86 / 0.05 < BURN_THRESHOLD, so no alarm.
    The same blip without the good history trips it."""
    healthy, blip_only = _slo_monitor(), _slo_monitor()
    for i in range(80):  # a healthy slow window first
        _record(*healthy, 1.0 + (i % 4), 1, ok=True)
    for state, monitor in (healthy, blip_only):
        _record(state, monitor, 10.0, 6, ok=False)  # then a short error blip
        monitor.tick()
    assert healthy[1].alarms == []
    _assert_alarms(blip_only[1], "slo-burn")


def test_slo_latency_breach_is_independent_of_errors():
    state, monitor = _slo_monitor()
    _record(state, monitor, 1.0, 6, ok=True, latency=3.0)
    monitor.tick()
    _assert_alarms(monitor, "slo-latency")
    assert monitor.alarms[0].details["fast_burn"] == 0.0


def test_slo_empty_windows_are_healthy():
    state, monitor = _slo_monitor()
    state["t"] = 5.0
    monitor.tick()
    assert monitor.alarms == []
    assert monitor.snapshot()["slo"]["query"] == {
        "ok": 0, "err": 0, "success_rate": 1.0, "success_target": 0.95,
        "latency_target": 2.0, "window_success": 1.0, "window_latency": 0.0,
    }


# -- the registry-transience rows (through the monitor's tick) ----------------


def test_shed_step_fires_on_rising_edge_only():
    state, metrics, monitor = _monitor(shed_step_threshold=10)
    state["t"] = 1.0
    monitor.tick()  # baseline sample: counter at 0
    metrics.counter("admission.shed").inc(12)
    state["t"] = 2.0
    monitor.tick()
    _assert_alarms(monitor, "shed-step")
    state["t"] = 3.0
    monitor.tick()  # condition persists: no second alarm
    _assert_alarms(monitor, "shed-step")
    state["t"] = 9.0
    monitor.tick()  # window drained: edge re-arms
    metrics.counter("admission.shed").inc(12)
    state["t"] = 10.0
    monitor.tick()
    _assert_alarms(monitor, "shed-step", "shed-step")
    assert monitor.alarms[1].details == {"shed_in_window": 12}


def test_queue_growth_uses_time_weighted_mean():
    state, metrics, monitor = _monitor(queue_depth_threshold=8.0)
    depth = metrics.gauge("registry.queue_depth")
    depth.set(10.0, now=0.0)
    state["t"] = 4.0
    monitor.tick()
    _assert_alarms(monitor, "queue-growth")
    # Queue drains: the mean decays and the edge clears.
    depth.set(0.0, now=4.5)
    state["t"] = 12.0
    monitor.tick()
    _assert_alarms(monitor, "queue-growth")
    depth.set(10.0, now=12.0)  # deep again for [12, 16]: mean 8 over 5 s
    state["t"] = 16.0
    monitor.tick()
    _assert_alarms(monitor, "queue-growth", "queue-growth")
    assert monitor.alarms[1].details == {"mean_depth": 8.0, "depth": 10.0}


def test_antientropy_staleness_per_node_and_rearms():
    stale = health.ANTIENTROPY_STALE_AFTER
    state, _metrics, monitor = _monitor()
    trace = _heard(state, monitor)
    trace.event("antientropy-round", node="r1", attrs={"n": 1})
    state["t"] = stale
    monitor.tick()
    _assert_alarms(monitor, "antientropy-stale")
    assert monitor.alarms[0].node == "r1"
    trace.event("antientropy-round", node="r1", attrs={"n": 1})  # the node came back
    state["t"] = stale + 1.0
    monitor.tick()
    assert len(monitor.alarms) == 1
    state["t"] = 2 * stale + 1.0
    monitor.tick()  # silent again: the edge re-fires
    _assert_alarms(monitor, "antientropy-stale", "antientropy-stale")


def test_lease_expiry_spike_names_single_source_node():
    state, _metrics, monitor = _monitor()  # LEASE_EXPIRY_SPIKE is 3

    def expire(node, count):
        trace = _heard(state, monitor)
        for i in range(count):
            trace.event("lease.expire", node=node,
                        attrs={"ad": f"ad~{i}", "lease": f"lease~{i}"})

    state["t"] = 1.0
    expire("r1", 3)
    state["t"] = 2.0
    monitor.tick()
    (alarm,) = monitor.alarms
    assert alarm.node == "r1"
    assert alarm.details["expiries_in_window"] == 3
    state["t"] = 12.0
    monitor.tick()  # the burst left the window: the edge re-arms
    expire("r1", 2)
    expire("r2", 1)
    state["t"] = 13.0
    monitor.tick()
    _assert_alarms(monitor, "lease-expiry-spike", "lease-expiry-spike")
    assert monitor.alarms[1].node == ""  # two sources: no single node named
    assert monitor.alarms[1].details["nodes"] == ["r1", "r2"]


def test_alarm_raises_counters_trace_event_and_dump():
    state, metrics, monitor = _monitor(shed_step_threshold=1)
    state["t"] = 1.0
    monitor.tick()
    metrics.counter("admission.shed").inc(5)
    state["t"] = 2.0
    monitor.tick()
    assert metrics.counters["health.alarms"].value == 1
    assert metrics.counters["health.alarm.shed-step"].value == 1
    assert len(monitor.dumps) == 1
    assert monitor.dumps[0].reason == "shed-step"


def test_invariant_violation_counts_and_dumps():
    _state, metrics, monitor = _monitor()
    monitor.on_invariant_violation("stale wire id")
    assert metrics.counters["health.invariant_violations"].value == 1
    assert monitor.dumps[0].reason == "invariant-violation: stale wire id"


def test_dump_inventory_is_bounded(monkeypatch):
    monkeypatch.setattr(health, "MAX_DUMPS", 3)
    _state, _metrics, monitor = _monitor()
    for i in range(5):
        monitor.capture_dump(f"manual-{i}")
    assert len(monitor.dumps) == 3
    assert [d.reason for d in monitor.dumps] == [
        "manual-2", "manual-3", "manual-4",
    ]


# -- wired into a deployment -------------------------------------------------


def test_enabled_monitor_mirrors_trace_into_rings():
    system = _system(HealthConfig(enabled=True))
    system.run(until=6.0)
    assert len(system.sim.trace.observers) == 1
    registry = system.registries[0].node_id
    recorder = system.health.recorders[registry]
    assert recorder.appended > 0
    names = {r.get("name") for r in recorder.records}
    assert "registry.publish" in names or "lease.grant" in names


def test_crash_dump_captured_and_byte_identical_across_runs():
    def crash_run() -> tuple[list, str]:
        system = _system(HealthConfig(enabled=True), seed=2)
        registry = system.registries[0]
        system.sim.schedule_at(6.0, registry.crash)
        system.sim.schedule_at(8.0, registry.restart)
        system.run(until=12.0)
        dumps = [(d.reason, d.node, d.time, d.records)
                 for d in system.health.dumps]
        return dumps, "\n".join(d.jsonl for d in system.health.dumps)

    dumps_a, jsonl_a = crash_run()
    dumps_b, jsonl_b = crash_run()
    assert any(reason == "crash" for reason, *_rest in dumps_a)
    assert dumps_a == dumps_b
    assert jsonl_a == jsonl_b and jsonl_a


def test_dumps_byte_identical_across_durable_crash_restart():
    def durable_run() -> str:
        system = _system(
            HealthConfig(enabled=True), seed=3,
            durability=DurabilityConfig(enabled=True),
        )
        registry = system.registries[0]
        system.sim.schedule_at(6.0, registry.crash)
        system.sim.schedule_at(8.0, registry.restart)
        system.run(until=14.0)
        # The ring records both the crash mark and the restart mark.
        marks = {r["name"] for r in
                 system.health.recorders[registry.node_id].records
                 if r.get("kind") == "mark"}
        assert {"node.crash", "node.restart"} <= marks
        return "\n".join(d.jsonl for d in system.health.dumps)

    assert durable_run() == durable_run()


def test_small_ring_truncates_deterministically(monkeypatch):
    monkeypatch.setattr(health, "RECORDER_CAPACITY", 8)

    def windowed_run() -> str:
        system = _system(HealthConfig(enabled=True), seed=4)
        system.run(until=10.0)
        registry = system.registries[0].node_id
        recorder = system.health.recorders[registry]
        assert recorder.evicted > 0
        assert len(recorder.records) == 8
        return recorder.dump_jsonl()

    dump = windowed_run()
    assert dump == windowed_run()
    assert len(dump.splitlines()) == 8


# -- breaker state gauge (federation) ---------------------------------------


def test_breaker_observer_silent_without_state_change():
    """The gauge is written only when a count crosses the threshold."""
    config = DiscoveryConfig(ping_interval=500.0, signalling_interval=None)
    system = DiscoverySystem(seed=0, config=config)
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    left = system.add_registry("lan-0")
    right = system.add_registry("lan-1")
    left.federation.record_neighbor_failure(right.node_id)  # below threshold
    left.federation.record_neighbor_success(right.node_id)  # closed -> closed
    assert f"breaker.state.{left.node_id}:{right.node_id}" not in system.network.metrics.gauges


def test_federation_breaker_state_gauge():
    config = DiscoveryConfig(
        ping_interval=500.0,  # keep ping rounds out of the test window
        signalling_interval=None,
    )
    system = DiscoverySystem(seed=0, ontology=battlefield_ontology(),
                             config=config)
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    left = system.add_registry("lan-0")
    right = system.add_registry("lan-1")
    system.federate(left, right)
    system.run(until=3.0)

    metrics = system.network.metrics
    gauge_name = f"breaker.state.{left.node_id}:{right.node_id}"
    for _ in range(3):
        left.federation.record_neighbor_failure(right.node_id)
    assert metrics.gauges[gauge_name].value == 2.0  # open
    system.run_for(6.0)
    assert not left.federation.breaker_allows(right.node_id)
    assert metrics.gauges[gauge_name].value == 2.0  # still open

    left.federation.record_neighbor_success(right.node_id)
    assert metrics.gauges[gauge_name].value == 0.0  # closed
