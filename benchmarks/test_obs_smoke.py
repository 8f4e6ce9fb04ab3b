"""Observability smoke — the `make obs-smoke` CI gate.

Asserts the two contracts the obs layer promises:

* **Determinism** — two same-seed traced runs of the canonical E7 WAN
  scenario export byte-identical trace JSONL (the
  ``repro.obs.tracing`` module docstring's contract, checked end-to-end
  through the full protocol stack rather than on the recorder alone);
* **Coverage** — the experiment tables carry interpolated latency
  percentiles (E1/E5/E7 acceptance columns) and the metrics registry
  sees WAN forwarding hops.
"""

from __future__ import annotations

import json

from repro.obs.capture import run_traced


def test_same_seed_trace_exports_are_byte_identical(results_dir):
    first = run_traced("e7", seed=0)
    second = run_traced("e7", seed=0)
    blob = first.capture.export_jsonl()
    assert blob == second.capture.export_jsonl()
    assert blob  # non-vacuous: the run actually traced something
    (results_dir / "obs_trace_e7.jsonl").write_text(blob + "\n")


def test_trace_covers_the_query_path_end_to_end():
    run = run_traced("e7", seed=0)
    assert run.sample_trace is not None
    names = {span.name for span in run.capture.spans_of(run.sample_trace)}
    assert {"client.query", "client.attempt", "registry.query"} <= names
    assert "registry.fanout" in names or "registry.forward" in names
    rendered = run.capture.render(run.sample_trace)
    assert "client.query" in rendered
    # Every record parses back as JSON (the export really is JSONL).
    for line in run.capture.export_jsonl().splitlines():
        json.loads(line)


def test_wan_forwarding_hops_reach_the_histogram():
    run = run_traced("e7", seed=0)
    hops = run.metrics.histogram("hops.query-forward")
    assert hops.count >= 1
    assert hops.vmin >= 1  # a forwarded query always crossed >= 1 hop


def test_e2e_latency_histogram_is_sane():
    run = run_traced("e7", seed=0)
    summary = run.metrics.histogram("query.e2e_latency").summary()
    assert summary["count"] >= 1
    assert summary["min"] <= summary["p50"] <= summary["p95"]
    assert summary["p95"] <= summary["p99"] <= summary["max"]


def test_e1_rows_carry_latency_percentiles():
    from repro.experiments.e1_topology import run

    result = run(service_counts=(4,), n_clients=2, n_queries=6,
                 maintenance_window=10.0, seed=0)
    for row in result.rows:
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(row)
    assert result.metrics  # per-arch summaries attached


def test_e5_rows_carry_latency_percentiles():
    from repro.experiments.e5_matchmaking import run

    result = run(n_profiles=20, n_requests=10, generalize_levels=(1,),
                 seed=0)
    for row in result.rows:
        assert {"p50_us", "p95_us", "p99_us"} <= set(row)
    assert result.metrics


def test_e7_rows_carry_latency_percentiles():
    from repro.experiments.e7_wan_federation import run

    result = run(lans=3, services_per_lan=2, n_queries=6, seed=0)
    for row in result.rows:
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(row)
    assert result.metrics
