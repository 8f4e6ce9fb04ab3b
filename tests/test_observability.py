"""Tests for the observability layer: metrics facade + causal tracing.

Covers the instruments in isolation, the recorder's determinism contract,
and — the interesting part — context propagation through the real
protocol: across retries, across WAN forwarding hops, and onto late
responses that arrive after their aggregation already timed out.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.errors import ReproError
from repro.netsim.stats import TrafficStats
from repro.obs.metrics import (
    Counter,
    Gauge,
    HOP_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import (
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    TraceRecorder,
)
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest


REQUEST = ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])


def _radar(name="radar-1"):
    return ServiceProfile.build(name, "ncw:AirSurveillanceRadarService",
                                outputs=["ncw:AirTrack"],
                                qos={"latency_ms": 40.0})


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


# -- instruments -------------------------------------------------------------


def test_counter_increments_and_rejects_decrease():
    counter = Counter("queries")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ReproError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = Gauge("leases")
    gauge.set(3.0)
    gauge.add(-1.0)
    assert gauge.value == 2.0


def test_histogram_percentiles_on_known_values():
    hist = Histogram("latency", buckets=(1, 2, 5, 10, 100))
    for value in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10):
        hist.observe(value)
    summary = hist.summary()
    assert summary["count"] == 10
    assert summary["min"] == 1.0
    assert summary["max"] == 10.0
    assert summary["mean"] == pytest.approx(5.5)
    # Percentile estimates stay ordered and inside the observed range.
    assert summary["min"] <= summary["p50"] <= summary["p95"] <= summary["p99"]
    assert summary["p99"] <= summary["max"]
    assert summary["p50"] == pytest.approx(5.0, abs=1.5)


def test_histogram_overflow_reports_observed_max():
    hist = Histogram("latency", buckets=(1.0,))
    hist.observe(50.0)
    hist.observe(70.0)
    assert hist.percentile(0.99) == 70.0


def test_histogram_empty_summary_is_zeroes():
    assert Histogram("empty").summary() == {
        "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
        "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
    }


def test_merged_histograms_answer_as_one_fed_every_value():
    values = (0.0004, 0.003, 0.2, 0.2, 1.7, 3.0, 70.0)
    whole = Histogram("whole")
    merged = Histogram("merged")
    for chunk in (values[:2], values[2:5], (), values[5:]):
        part = Histogram("part")
        for value in chunk:
            part.observe(value)
            whole.observe(value)
        merged.merge(part)
    assert (merged.counts, merged.overflow, merged.count, merged.vmin, merged.vmax) \
        == (whole.counts, whole.overflow, whole.count, whole.vmin, whole.vmax)
    for p in (0.1, 0.5, 0.95, 1.0):
        assert merged.percentile(p) == whole.percentile(p)


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ReproError):
        Histogram("bad", buckets=(2.0, 1.0))


def test_registry_creates_on_first_use_and_reuses():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.counter("a").inc()
    assert registry.counter("a").value == 2
    first = registry.histogram("h", buckets=HOP_BUCKETS)
    assert registry.histogram("h") is first
    snap = registry.snapshot()
    assert snap["counters"] == {"a": 2}
    assert "h" in snap["histograms"]
    assert "a" in registry.render()


# -- recorder ----------------------------------------------------------------


def _recorder():
    """A recorder with a capture attached, and its clock."""
    clock = {"now": 0.0}
    rec = TraceRecorder(lambda: clock["now"])
    rec.capture()
    return rec, clock


def test_alias_interns_in_first_seen_order():
    rec, _clock = _recorder()
    assert rec.alias("q-000412") == "q~1"
    assert rec.alias("q-000999") == "q~2"
    assert rec.alias("q-000412") == "q~1"  # stable within a run
    assert rec.alias("ad-000007") == "ad~1"  # per-prefix numbering


def test_alias_prefix_is_the_letters_of_the_head_whatever_the_head():
    """The per-head memo must give exactly what cleaning each id would."""
    rec, _clock = _recorder()
    expected = {}
    counts: dict[str, int] = {}
    raw_ids = ["lease-000001", "bulk-000001", "lease-000002", "q2x-7", "qx-9", "q2x-8",
               "123-4", "-5", "plain", "lease-000001", "x_y-1", "xy-2", "É-1"]
    for raw in raw_ids:
        if raw not in expected:
            prefix = "".join(ch for ch in raw.split("-", 1)[0] if ch.isalpha()) or "id"
            counts[prefix] = counts.get(prefix, 0) + 1
            expected[raw] = f"{prefix}~{counts[prefix]}"
        assert rec.alias(raw) == expected[raw], raw
    # Heads that clean to the same letters share one numbering.
    assert (expected["q2x-7"], expected["qx-9"], expected["q2x-8"]) == ("qx~1", "qx~2", "qx~3")
    assert (expected["123-4"], expected["-5"]) == ("id~1", "id~2")


def test_trace_records_have_no_instance_dict():
    rec, _clock = _recorder()
    span = rec.start_span("client.query", node="c-0", attrs={"k": 1})
    event = rec.event("lease.grant", node="r-0", ctx=span.context)
    for record in (span, event):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.note = "undeclared"
    rec.end_span(span, status="timeout", attrs={"late": True})  # declared fields still move
    assert (span.status, span.attrs, span.duration) == ("timeout", {"k": 1, "late": True}, 0.0)
    assert event.trace_id == span.trace_id and event.attrs == {}


def test_span_tree_and_context_propagation():
    rec, clock = _recorder()
    root = rec.start_span("client.query", node="client-0")
    headers: dict = {}
    TraceRecorder.inject(headers, root.context)
    assert headers == {TRACE_ID_HEADER: root.trace_id,
                       SPAN_ID_HEADER: root.span_id}
    ctx = TraceRecorder.extract(headers)
    child = rec.start_span("registry.query", node="registry-0", ctx=ctx)
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    clock["now"] = 0.5
    rec.end_span(child)
    rec.end_span(child, status="late")  # idempotent: first close wins
    assert child.status == "ok"
    rec.end_span(root)
    rendered = rec.capture().render(root.trace_id)
    assert "client.query" in rendered and "registry.query" in rendered


def test_extract_without_context_returns_none():
    assert TraceRecorder.extract({}) is None


def test_export_jsonl_is_creation_ordered_and_parseable():
    rec, clock = _recorder()
    span = rec.start_span("op", node="n")
    rec.event("mark", node="n", ctx=span.context, attrs={"k": 1})
    clock["now"] = 1.0
    rec.end_span(span)
    lines = rec.capture().export_jsonl().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["kind"] for r in records] == ["span", "event"]
    assert records[0]["end"] == 1.0
    assert records[1]["attrs"] == {"k": 1}


def test_a_recorder_without_listeners_builds_no_event_and_interns_no_id():
    rec = TraceRecorder(lambda: 0.0)
    assert rec.start_span("op", attrs={"k": 1}) is None  # nor a span
    # The quiet span still closes the door on late listeners.
    with pytest.raises(RuntimeError, match="first trace record"):
        rec.capture()
    with pytest.raises(RuntimeError, match="first trace record"):
        rec.listen(lambda record: None)
    assert rec.event("mark", ctx=(1, 1), attrs={"k": 1}) is None
    assert rec.alias("q-000412") == "q-000412"
    assert rec._aliases == {} and rec._alias_counts == {}
    assert not rec.listening and rec.spans == () and rec.events == ()


def test_listeners_attach_only_before_the_first_record():
    """A capture or observer that missed records would export (or dump) a
    different trace: refused, whichever record came first."""
    for first in (lambda rec: rec.start_span("op"), lambda rec: rec.event("mark")):
        rec = TraceRecorder(lambda: 0.0)
        first(rec)
        with pytest.raises(RuntimeError, match="first trace record"):
            rec.capture()
        with pytest.raises(RuntimeError, match="first trace record"):
            rec.listen(lambda record: None)
        assert not rec.listening
    rec, _clock = _recorder()
    heard: list = []
    rec.listen(heard.append)
    rec.event("mark", attrs={"k": 1})
    assert rec.capture() is rec.capture()  # the attached one, not a late one
    assert [ev.name for ev in rec.capture().events] == ["mark"]
    assert heard == [{"t": 0.0, "kind": "event", "name": "mark", "node": "",
                      "attrs": {"k": 1}}]


# -- end-to-end propagation --------------------------------------------------


def _system(fast, *, lans=1, seed=21):
    system = DiscoverySystem(seed=seed, ontology=battlefield_ontology(),
                             config=fast)
    system.trace.capture()
    for i in range(lans):
        system.add_lan(f"lan-{i}")
        system.add_registry(f"lan-{i}")
    return system


def test_single_lan_query_produces_a_causal_trace(fast):
    system = _system(fast)
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.completed and call.trace_id is not None
    spans = system.trace.capture().spans_of(call.trace_id)
    names = [span.name for span in spans]
    assert names[0] == "client.query"
    assert "client.attempt" in names and "registry.query" in names
    assert all(span.end is not None for span in spans)
    events = [ev.name for ev in system.trace.capture().events_of(call.trace_id)]
    assert "registry.match" in events and "net.deliver" in events


def test_retried_query_keeps_one_trace_id(fast):
    system = _system(fast)
    system.add_registry("lan-0")  # survivor
    system.add_service("lan-0", _radar())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    system.network.node(client.tracker.current).crash()
    call = system.discover(client, REQUEST, timeout=30.0)
    assert call.attempts == 2 and call.trace_id is not None
    attempts = [span for span in system.trace.capture().spans_of(call.trace_id)
                if span.name == "client.attempt"]
    assert len(attempts) == 2
    assert {span.trace_id for span in attempts} == {call.trace_id}
    assert attempts[0].status == "timeout" and attempts[1].status == "ok"
    events = system.trace.capture().events_of(call.trace_id)
    assert any(ev.name == "query.retry" for ev in events)


def test_late_response_attaches_to_original_trace():
    config = DiscoveryConfig(
        aggregation_timeout=0.04, default_ttl=1,  # timeout < one WAN round trip
        ping_interval=120.0, signalling_interval=None,
    )
    system = DiscoverySystem(seed=5, ontology=battlefield_ontology(),
                             config=config)
    system.trace.capture()
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    r0 = system.add_registry("lan-0", node_id="registry-00",
                             seeds=("registry-01",))
    system.add_registry("lan-1", node_id="registry-01")
    system.add_service("lan-1", _radar("radar"))
    client = system.add_client("lan-0")
    system.run(until=5.0)

    call = system.discover(client, REQUEST, timeout=5.0)
    system.run_for(1.0)  # let the straggler response arrive
    assert r0.queries.late_responses >= 1
    late = [ev for ev in system.trace.events if ev.name == "late-response"]
    assert late, "late response should be recorded as a trace event"
    assert late[0].trace_id == call.trace_id
    timeouts = [ev for ev in system.trace.capture().events_of(call.trace_id)
                if ev.name == "aggregation.timeout"]
    assert timeouts, "the parent aggregation's timeout shares the trace"


def test_forwarded_wan_query_records_hops(fast):
    system = _system(fast, lans=2)
    system.federate_ring()
    system.add_service("lan-1", _radar())
    client = system.add_client("lan-0")
    system.run(until=3.0)
    call = system.discover(client, REQUEST, timeout=10.0)
    assert call.completed
    hops = system.metrics.histogram("hops.query-forward")
    assert hops.count >= 1 and hops.vmin >= 1
    deliveries = [ev for ev in system.trace.capture().events_of(call.trace_id)
                  if ev.name == "net.deliver"
                  and ev.attrs.get("msg_type") == "query-forward"]
    assert deliveries and all(ev.attrs["hops"] >= 1 for ev in deliveries)


def test_lease_lifecycle_emits_events(fast):
    system = _system(fast)
    service = system.add_service("lan-0", _radar())
    system.run(until=3.0)  # grant + at least one renew
    service.crash()
    system.run_for(6.0)  # > lease duration: expiry fires
    kinds = {ev.name for ev in system.trace.events}
    assert "lease.grant" in kinds and "lease.renew" in kinds
    assert "lease.expire" in kinds
    assert system.metrics.counter("lease.grant").value >= 1
    assert system.metrics.counter("lease.expire").value >= 1
    # One shared name string per kind, not one formatted per event.
    renews = [ev.name for ev in system.trace.events if ev.name == "lease.renew"]
    assert len(renews) > 1 and all(name is renews[0] for name in renews)


# -- TrafficStats by_type / reset regression ---------------------------------


def test_snapshot_carries_by_type_and_delta_diffs_it():
    stats = TrafficStats()
    stats.record_send("query", "n0", 100, wan=False, multicast=False)
    before = stats.snapshot()
    assert before["by_type"] == {"query": {"count": 1, "bytes": 100}}
    stats.record_send("query", "n0", 50, wan=False, multicast=False)
    stats.record_send("publish", "n1", 10, wan=False, multicast=False)
    delta = stats.delta_since(before)
    assert delta["by_type"] == {
        "query": {"count": 1, "bytes": 50},
        "publish": {"count": 1, "bytes": 10},
    }


def test_delta_since_after_reset_is_all_zero():
    stats = TrafficStats()
    stats.record_send("query", "n0", 100, wan=True, multicast=False)
    stats.record_delivery("n1", 100)
    stats.record_retry("query")
    stats.reset()
    baseline = stats.snapshot()
    delta = stats.delta_since(baseline)
    assert delta["by_type"] == {}
    assert all(value == 0 for key, value in delta.items() if key != "by_type")
