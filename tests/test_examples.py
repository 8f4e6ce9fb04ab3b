"""Every example under ``examples/`` runs to completion, and the baseline
comparison prints the table it always printed."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(repro.__file__).parent.parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def _run(example: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, str(example)], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)


def test_there_are_examples():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("example", EXAMPLES, ids=[e.name for e in EXAMPLES])
def test_example_runs(example):
    done = _run(example)
    assert done.returncode == 0, done.stderr


#: ``dead / recall(alive) / stale_hits / registry_staleness / bytes`` per
#: architecture, as printed before the baselines became rows of the
#: architecture table. UDDI's bytes are 512 more since: its registry is a
#: plain registry and multicasts one start-up probe.
TABLE = {
    "federated": ["3", "1.0", "0", "0.0", "801705"],
    "uddi": ["3", "1.0", "8", "0.375", str(113100 + 512)],
    "wsd-proxy": ["3", "0.5", "1", "0.25", "73527"],
    "wsd-adhoc": ["3", "0.5", "0", "0.0", "31085"],
}


def test_baseline_comparison_table():
    done = _run(REPO / "examples" / "baseline_comparison.py")
    rows = {line.split()[0]: line.split()[1:] for line in done.stdout.splitlines()
            if line.split()[:1] and line.split()[0] in TABLE}
    assert rows == TABLE
