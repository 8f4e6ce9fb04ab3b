"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import pathlib

import pytest

from repro.cli import EXPERIMENTS, build_parser, main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_list_shows_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out
    assert "ablations" in out


def test_every_listed_experiment_module_has_run():
    import importlib

    for key, (module_name, _description) in EXPERIMENTS.items():
        module = importlib.import_module(module_name)
        assert callable(module.run), key


def test_experiment_runs_and_prints_table(capsys):
    assert main(["experiment", "e12", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "E12" in out
    assert "sync=on" in out


def test_experiment_unknown_id(capsys):
    assert main(["experiment", "e99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_demo_runs(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "medevac-dispatch" in out
    assert "fallback" in out


def test_ablations_prints_the_committed_table(capsys):
    """``repro ablations`` at seed 0 is ``benchmarks/results/a-all.txt``."""
    assert main(["ablations", "--seed", "0"]) == 0
    committed = ROOT / "benchmarks" / "results" / "a-all.txt"
    assert capsys.readouterr().out == committed.read_text(encoding="utf-8")


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_experiment_ids_match_design_numbering():
    assert set(EXPERIMENTS) == {f"e{i}" for i in range(1, 22)}


def test_experiment_chart_flag(capsys):
    assert main(["experiment", "e12", "--chart", "recall"]) == 0
    out = capsys.readouterr().out
    assert "E12: recall" in out
    assert "#" in out  # bars rendered


def test_experiment_chart_unknown_column(capsys):
    assert main(["experiment", "e12", "--chart", "nonexistent"]) == 0
    err = capsys.readouterr().err
    assert "no column" in err


def test_experiment_json_output_parses(capsys):
    import json

    assert main(["experiment", "e12", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "E12"
    assert isinstance(payload["rows"], list) and payload["rows"]
    assert "metrics" in payload


def test_trace_renders_a_span_tree(capsys):
    assert main(["trace", "e1"]) == 0
    out = capsys.readouterr().out
    assert "client.query" in out
    assert "registry.query" in out


def test_trace_jsonl_dump_parses(capsys):
    import json

    assert main(["trace", "e1", "--jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert any(r["kind"] == "span" for r in records)
    assert any(r["kind"] == "event" for r in records)


#: SHA-256 of ``python -m repro trace e7 --jsonl``'s stdout (118 lines), as
#: recorded when the recorder still kept every record itself.
E7_TRACE_SHA256 = "86511067a4f7e095a0e376add43b18f6fc497672f5dfc5502aac8ea639be2ff5"


def test_trace_e7_jsonl_is_pinned_by_value(capsys):
    assert main(["trace", "e7", "--jsonl"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 118
    assert hashlib.sha256(out.encode()).hexdigest() == E7_TRACE_SHA256


#: The same pin, (lines, SHA-256), for the captures with a deployment of
#: their own (tiny admission queue, routing, durability, health), recorded
#: before those captures were rewritten onto ``workloads.queries.play``.
TRACE_PINS = {
    "e17": (53, "68f2ca008efb6706cc9b00009e22bbcea0f52eda6a8491a46d5fbd5ecbf98b43"),
    "e18": (50, "88e540911be3ffab692a83b322905105721096d18df4b04d4450ba06bb55bf90"),
    "e19": (43, "bc6edfea570ff2d2785daf808f8800f001a433cc5dfdd67f9d5a37cc790d355e"),
    "e20": (54, "cc9170d6cd88f737f545903ef03c8f26cf784fee7abda8c6e5562a9ec33c6252"),
}


@pytest.mark.parametrize("experiment", sorted(TRACE_PINS))
def test_trace_jsonl_is_pinned_by_value(capsys, experiment):
    assert main(["trace", experiment, "--jsonl"]) == 0
    out = capsys.readouterr().out
    lines, sha256 = TRACE_PINS[experiment]
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_trace_unknown_experiment(capsys):
    assert main(["trace", "e99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_metrics_renders_registry(capsys):
    assert main(["metrics", "e1"]) == 0
    out = capsys.readouterr().out
    assert "histograms:" in out
    assert "latency.query" in out


def test_metrics_unknown_experiment(capsys):
    assert main(["metrics", "e99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_metrics_prom_format_is_stable(capsys):
    import re

    assert main(["metrics", "e1", "--format", "prom"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert out.endswith("\n") and lines
    assert any(line.startswith("# TYPE ") and line.endswith(" counter")
               for line in lines)
    assert any(line.startswith("# TYPE ") and line.endswith(" histogram")
               for line in lines)
    assert 'le="+Inf"' in out
    # Every sample name obeys the Prometheus metric-name grammar.
    for line in lines:
        if line.startswith("#") or not line:
            continue
        name = line.split(" ", 1)[0].split("{", 1)[0]
        assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", name), line
    # Byte-stable: a second capture renders identically.
    assert main(["metrics", "e1", "--format", "prom"]) == 0
    assert capsys.readouterr().out == out


def test_metrics_json_flag_still_works(capsys):
    import json

    assert main(["metrics", "e1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"counters", "gauges", "histograms"}


def test_health_writes_and_renders_report(tmp_path, capsys):
    import json

    assert main(["health", "e19", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "capacity report — E19" in out
    path = tmp_path / "health_e19_seed0.json"
    assert path.exists()
    report = json.loads(path.read_text())
    assert report["experiment"] == "E19"
    assert report["points"]
    assert all("slo_ok" in point for point in report["points"])


def test_health_rejects_non_health_experiment(capsys):
    assert main(["health", "e1"]) == 2
    assert "unknown health experiment" in capsys.readouterr().err
