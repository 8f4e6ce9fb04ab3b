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
                              "discover", "s", "stored", "rebuilds", "snap", "entries",
                              "wal", "records"]
    assert len(rows) == 2
    replayed = []
    for row in rows:
        *seconds, stored, rebuilds, entries, records = row.split()
        assert len(seconds) == 3 and (stored, rebuilds) == ("600", "1")
        # Replay reads the snapshot and at most max(512, its entries) WAL records.
        assert int(records) <= max(512, int(entries))
        replayed.append((int(entries), int(records)))
    # The load left a 512-entry snapshot and the rest in the WAL; the first
    # recovery compacted everything into its own snapshot.
    assert replayed == [(512, 88), (600, 0)]
