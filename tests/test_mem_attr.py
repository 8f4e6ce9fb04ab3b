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


def _growth(n_ops: int, *args: str) -> tuple[str, dict[str, float], dict[str, int]]:
    """``--growth n_ops`` on ``wan_small``: the output, B/op by module, and
    retained blocks by allocating source line."""
    done = _run("--growth", str(n_ops), "--workload", "wan_small", "--top", "40", *args)
    assert done.returncode == 0, done.stderr
    module_table, line_table = done.stdout.split("\nline ", 1)
    modules = {line.split()[0]: float(line.split()[2])
               for line in module_table.splitlines() if line.startswith("src/")}
    blocks = {line.split("  ")[-1]: int(line.split()[3])
              for line in line_table.splitlines()[1:] if line.startswith("src/")}
    return done.stdout, modules, blocks


def _calls_kept(blocks: dict[str, int]) -> int:
    return sum(n for source, n in blocks.items() if source.startswith("call = DiscoveryCall("))


def test_growth_reports_bytes_per_operation_by_module_and_line():
    out, modules, blocks = _growth(128)
    assert "retained by 128 x WanSmall.op after a warm round" in out
    assert "B/op" in out and "over 128 operations" in out
    # With nobody listening, the recorder opens no span, so it keeps
    # nothing per operation (at most its current record sequence number,
    # one int for the whole run).
    assert modules.get("src/repro/obs/tracing.py", 0) == 0
    # The client keeps no history of its calls, and an answered attempt
    # cancels its query timeout: no call outlives its answer.
    assert _calls_kept(blocks) == 0


def test_growth_above_the_bound_exits_non_zero():
    done = _run("--growth", "64", "--workload", "wan_small", "--max-bytes-per-op", "1")
    assert done.returncode != 0
    assert "B/op retained over 64 operations, above --max-bytes-per-op 1" in done.stderr
    done = _run("--growth", "64", "--workload", "wan_small", "--max-bytes-per-op", "1e9")
    assert done.returncode == 0, done.stderr
    refused = _run("--max-bytes-per-op", "1")
    assert refused.returncode != 0 and "--max-bytes-per-op bounds --growth" in refused.stderr


def test_unknown_workload_is_refused():
    done = _run("--workload", "nope")
    assert done.returncode != 0 and "unknown workload 'nope'" in done.stderr
