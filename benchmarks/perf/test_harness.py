"""Self-test of the benchmark harness, at 2 % scale.

Run with ``python -m pytest benchmarks/perf -q``. Not part of tier-1
(``testpaths = ["tests"]``): it checks the harness, not the program.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = "0.02"
COUNT_UNITS = ("count", "B")


def _command(workload: str, trace: int, seed: int) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace), "--scale", SCALE]


@functools.lru_cache(maxsize=None)
def measure(workload: str, trace: int, seed: int = 42, hashseed: str = "1") -> dict:
    """One run in a fresh process; the parsed last line of its output."""
    proc = subprocess.run(
        _command(workload, trace, seed), capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": hashseed},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict[str, float]:
    return {name: cell["value"] for name, cell in result["metrics"].items()
            if cell["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_emits_exactly_the_declared_metrics(workload: str, trace: int) -> None:
    result = measure(workload, trace)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {n: c["unit"] for n, c in result["metrics"].items()} == declared
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0
    else:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_are_a_function_of_the_seed_only(workload: str) -> None:
    first = counts(measure(workload, 1, 42, "1"))
    again = counts(measure(workload, 1, 42, "2"))
    other = counts(measure(workload, 1, 43, "1"))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", [w for w in WORKLOADS if w != "churn_mix"])
def test_durability_counts_are_zero_without_durability(workload: str) -> None:
    values = counts(measure(workload, 1))
    durability = {n: v for n, v in values.items() if n.startswith("core.durability.")}
    assert durability and not any(durability.values())


def test_churn_mix_exercises_the_write_path() -> None:
    metrics = measure("churn_mix", 1)["metrics"]
    for name in ("publish_p50_ms", "renew_p50_ms", "remove_p50_ms", "write_p99_ms",
                 "recover_s", "core.durability.wal_appends_per_write",
                 "core.durability.replayed_records"):
        assert metrics[name]["value"] > 0, name


def test_traced_pass_restores_every_patched_attribute() -> None:
    import run  # noqa: F401  (puts src/ on sys.path)
    import spans
    from deployments import WORKLOADS as workloads

    targets = spans.TIMER_TARGETS + spans.HOT_TARGETS + spans.RECOVER_TARGETS
    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in targets]
    metrics, _notes, dep = run.per_layer(workloads["churn_mix"], 7, 10.0, float(SCALE))
    assert dep.failed == 0
    assert 0.9 <= metrics["bench.layer_coverage_frac"] <= 1.0
    for cls, attr, original in originals:
        assert cls.__dict__[attr] is original, f"{cls.__name__}.{attr}"


def test_refuses_to_run_without_the_program(tmp_path: pathlib.Path) -> None:
    """Only ``BENCHMARK.json`` and ``paths``: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "wan_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
