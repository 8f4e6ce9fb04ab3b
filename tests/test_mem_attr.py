"""``tools/mem_attr.py`` end to end on a 300-advertisement deployment."""

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
    assert "src/repro/registry/leases.py:" in line_table and "lease = Lease(" in line_table
    assert "tracemalloc.py" not in out


def test_phases_report_rss_after_each_set_up_phase():
    done = _run("--phases", "--workload", "churn_mix")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["imports", "inputs", "build", "prepare", "one"]
    rss, hwm = [float(r[-2]) for r in rows], [float(r[-1]) for r in rows]
    assert all(0 < r <= h for r, h in zip(rss, hwm)) and hwm == sorted(hwm)


def test_unknown_workload_is_refused():
    done = _run("--workload", "nope")
    assert done.returncode != 0 and "unknown workload 'nope'" in done.stderr
