"""The verdict rule of ``tools/perf_pairs.py`` on hand-made samples, and
its loop over workloads with the benchmark and the parent export faked."""

from __future__ import annotations

import contextlib
import importlib.util
import json
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perf_pairs", pathlib.Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def _shifted(factor: float, noise: float = 0.0) -> list[float]:
    return [p * factor + (noise if i % 2 else -noise) for i, p in enumerate(PARENT)]


@pytest.mark.parametrize("change, better, expected", [
    (_shifted(1.5), "higher", "gain"),
    (_shifted(1.5), "lower", "regression"),
    (_shifted(0.6), "lower", "gain"),
    # Wins every pair, but by less than the parent's own quartiles span.
    (_shifted(1.001), "higher", "unchanged"),
    # Worse than the bound in the median although it wins a third of the pairs.
    ([p * (1.1 if i % 3 == 0 else 0.6) for i, p in enumerate(PARENT)], "higher", "regression"),
    # No side wins nine in ten and the change's spread is wider than the bound.
    (_shifted(1.0, noise=0.4), "higher", "unresolved"),
])
def test_verdict(change, better, expected):
    result = perf_pairs.verdict(PARENT, change, better=better, bound=0.25)
    assert result["verdict"] == expected
    assert result["wins"] + result["ties"] + result["losses"] == len(PARENT)


def test_ties_count_for_neither_side():
    result = perf_pairs.verdict(PARENT, list(PARENT), better="higher", bound=0.25)
    assert (result["wins"], result["ties"], result["losses"]) == (0, 10, 0)
    assert result["verdict"] == "unchanged" and result["ratio"] == 1.0


def test_a_single_pair_is_its_own_quartiles():
    result = perf_pairs.verdict([2.0], [1.0], better="lower", bound=0.25)
    assert result["parent"] == (2.0, 2.0, 2.0) and result["verdict"] == "gain"


# -- ``--workload all``: every workload in turn, exit 1 if any regresses -------

SPEC = json.loads((perf_pairs.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _fake_harness(monkeypatch, worse_on: str = "") -> list:
    """Replace the parent export and the benchmark run; returns the runs made.
    The change reads twice as bad as the parent on workload ``worse_on``."""
    runs = []

    @contextlib.contextmanager
    def exported(rev):
        yield pathlib.Path("/exported") / rev

    def run_once(tree, workload, seed, seconds):
        runs.append((tree.name, workload, seed))
        worse = workload == worse_on and tree == perf_pairs.ROOT
        value = {"higher": 0.5, "lower": 2.0} if worse else {"higher": 1.0, "lower": 1.0}
        return {"failed": 0, "attempted": 8,
                "metrics": {m["name"]: {"value": value[m["better"]]}
                            for m in SPEC["end_to_end"]}}

    monkeypatch.setattr(perf_pairs, "same_harness", lambda parent, change: None)
    monkeypatch.setattr(perf_pairs, "exported", exported)
    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    return runs


def test_workload_all_runs_every_workload_against_one_export(monkeypatch, capsys):
    runs = _fake_harness(monkeypatch)
    assert perf_pairs.main(["--parent", "rev", "--workload", "all",
                            "--pairs", "2", "--seed", "7"]) == 0
    change = perf_pairs.ROOT.name
    assert runs == [(side, name, seed) for name in WORKLOADS
                    for seed, sides in ((7, ("rev", change)), (8, (change, "rev")))
                    for side in sides]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("# ") and ":" in line] \
        == [f"# {name}" for name in WORKLOADS]
    assert sum(line.startswith("metric ") for line in lines) == len(WORKLOADS)


def test_change_pairs_a_second_export_instead_of_the_working_tree(monkeypatch, capsys):
    runs = _fake_harness(monkeypatch)
    checked = []
    monkeypatch.setattr(perf_pairs, "same_harness",
                        lambda parent, change: checked.append((parent, change)))
    assert perf_pairs.main(["--parent", "a", "--change", "b", "--workload", "wan_small",
                            "--pairs", "2", "--seed", "7"]) == 0
    assert checked == [("a", "b")]
    assert runs == [("a", "wan_small", 7), ("b", "wan_small", 7),
                    ("b", "wan_small", 8), ("a", "wan_small", 8)]
    assert "# wan_small: 2 pairs, parent a, change b," in capsys.readouterr().out


def test_workload_all_exits_1_when_any_workload_regresses(monkeypatch):
    runs = _fake_harness(monkeypatch, worse_on="churn_mix")
    assert perf_pairs.main(["--parent", "rev", "--workload", "all", "--pairs", "1"]) == 1
    assert [name for _, name, _ in runs[::2]] == WORKLOADS  # none skipped after it
    assert perf_pairs.main(["--parent", "rev", "--workload", "wan_small", "--pairs", "1"]) == 0


def test_unknown_workload_is_refused_before_anything_runs(monkeypatch):
    runs = _fake_harness(monkeypatch)
    with pytest.raises(SystemExit):
        perf_pairs.main(["--parent", "rev", "--workload", "nope"])
    assert runs == []
