"""``tools/recover_at_scale.py`` end to end on a small durable registry."""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_each_restart_brings_every_ad_back_and_one_rebuild_answers():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "recover_at_scale.py"),
         "--ads", "600", "--repeats", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    head, header, *rows = done.stdout.splitlines()
    assert head.startswith("600 ads stored through the WAL in ")
    assert header.split() == ["restart", "s", "first", "discover", "s", "second",
                              "discover", "s", "stored", "rebuilds"]
    assert len(rows) == 2
    for row in rows:
        *seconds, stored, rebuilds = row.split()
        assert len(seconds) == 3 and (stored, rebuilds) == ("600", "1")
