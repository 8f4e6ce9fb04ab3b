"""``tools/mem_attr.py`` end to end on small deployments."""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mem_attr.py"), "--scale", "0.003", *args],
        capture_output=True, text=True, timeout=120,
    )


def test_attribution_names_modules_and_lines_of_the_program():
    done = _run("--top", "40")
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "Wan100k.build under tracemalloc" in out and "over 300 advertisements" in out
    module_table, line_table = out.split("\nline ", 1)
    # Both tables are relative to the checkout and in bytes per advertisement.
    assert "src/repro/registry/leases.py " in module_table and "B/ad" in module_table
    # A lease is four store columns and one packed expiry-heap key.
    assert "src/repro/registry/leases.py:" in line_table \
        and "heapq.heappush(heap, _ordered(due)" in line_table
    assert "self._lease_expiries.append(0.0)" in line_table
    assert "tracemalloc.py" not in out


def test_phases_report_rss_after_each_set_up_phase():
    done = _run("--phases", "--workload", "churn_mix")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["imports", "inputs", "build", "prepare", "one"]
    rss, hwm = [float(r[-2]) for r in rows], [float(r[-1]) for r in rows]
    assert all(0 < r <= h for r, h in zip(rss, hwm)) and hwm == sorted(hwm)


def test_inputs_attribute_the_generated_records_per_profile():
    done = _run("--inputs", "--top", "40")
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "retained by Wan100k.inputs under tracemalloc" in out
    assert "B/record over 300 generated profile records" in out
    module_table, line_table = out.split("\nline ", 1)
    rows = {line.split()[0]: float(line.split()[2])
            for line in module_table.splitlines() if line.startswith(("src/", "benchmarks/"))}
    # The profiles themselves, and the harness's advertisements around them.
    assert rows["src/repro/semantics/profiles.py"] > 0
    assert rows["benchmarks/perf/deployments.py"] > 0
    assert "src/repro/semantics/profiles.py:" in line_table and "return ServiceProfile(" in line_table
    assert "tracemalloc.py" not in out


def test_growth_reports_bytes_per_operation_by_module_and_line():
    done = _run("--growth", "64", "--workload", "wan_small", "--top", "40")
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "retained by 64 x WanSmall.op after a warm round" in out
    module_table, line_table = out.split("\nline ", 1)
    assert "B/op" in module_table and "over 64 operations" in out
    rows = {line.split()[0]: float(line.split()[2])
            for line in module_table.splitlines() if line.startswith("src/")}
    # Each discover keeps its DiscoveryCall; with nobody listening, the
    # recorder opens no span, so it keeps nothing per operation (at most
    # its current record sequence number, one int for the whole run).
    assert rows["src/repro/core/client_node.py"] > 0
    assert rows.get("src/repro/obs/tracing.py", 0) == 0
    assert "src/repro/core/client_node.py:" in line_table and "call = DiscoveryCall(" in line_table


def test_unknown_workload_is_refused():
    done = _run("--workload", "nope")
    assert done.returncode != 0 and "unknown workload 'nope'" in done.stderr
