"""Bench E20 — runtime health under injected faults.

Gates the PR's acceptance criteria:

* **Precision** — the no-fault control run raises zero alarms and
  captures zero dumps: the health layer never cries wolf on a healthy
  deployment.
* **Recall** — every injected fault class raises at least one matched
  alarm inside its detection window: ``shed-step`` under the overload
  flood, ``antientropy-stale`` for the crashed registry (plus a crash
  dump), ``lease-expiry-spike`` when the partition starves replica
  lease refreshes — and every alarm carries a flight-recorder dump.
* **Determinism** — two same-seed faulted runs produce byte-identical
  alarm timelines and dump JSONL.
* **Absence** — a health-*disabled* run builds no monitor, and two of
  them of the same faulted scenario export byte-identical trace JSONL.
"""

from repro.experiments.e20_health import PHASES, run, run_health_smoke


def test_e20_health(benchmark, record, results_dir):
    result = benchmark.pedantic(
        lambda: run(seed=0, report_dir=str(results_dir)),
        rounds=1, iterations=1,
    )
    record(result)
    clean = result.single(run="clean")
    assert clean["alarms"] == 0 and clean["dumps"] == 0
    assert clean["detected"]
    assert clean["probe_success"] == 1.0
    for name, _start, _end, _expected in PHASES:
        assert result.single(run="faulted", phase=name)["detected"], name
    overall = result.single(run="faulted", phase="overall")
    assert overall["detected"] and overall["dumps"] > 0
    report = results_dir / "health_e20_seed0.json"
    assert report.exists()


def test_e20_smoke_gates():
    smoke = run_health_smoke(seed=0)

    # Precision: the clean run is silent.
    assert smoke["clean_alarms"] == []
    assert smoke["clean_dumps"] == []

    # Recall: each fault class trips its matched detector in-window.
    for phase, expected in smoke["expected"].items():
        observed = smoke["phase_alarms"][phase]
        assert any(alarm in observed for alarm in expected), (phase, observed)

    # Every alarm captured a dump, and the crash captured its own.
    reasons = [reason for reason, _node, _t, _records in smoke["faulted_dumps"]]
    assert "crash" in reasons
    assert len(smoke["faulted_dumps"]) == len(smoke["faulted_alarms"]) + 1
    assert all(records > 0 for _r, _n, _t, records in smoke["faulted_dumps"])

    # Determinism: same seed, same alarms, same dump bytes.
    assert smoke["faulted_alarm_json"] == smoke["repeat_alarm_json"]
    assert smoke["faulted_dump_jsonl"] == smoke["repeat_dump_jsonl"]
    assert smoke["faulted_dump_jsonl"]

    # Absence: health off builds no monitor; same seed, same trace bytes.
    assert smoke["off_health"] is None
    assert smoke["off_trace_a"] == smoke["off_trace_b"]
    assert smoke["off_trace_a"]
