"""``tools/op_classes.py`` end to end on a small ``lan_fallback`` run."""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_discover_falls_in_one_class_and_the_band_is_accounted():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_classes.py"), "--scale", "0.05"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    head, header, *rows = done.stdout.splitlines()
    assert head.startswith("lan_fallback seed 1000: ")
    total = int(head.split(": ")[1].split()[0])
    in_band = int(head.split("band ")[1].split()[0])
    assert header.split() == ["class", "count", "median", "kref", "x", "p50", "in", "band"]
    table = {row[:15].strip(): row[15:].split() for row in rows}
    assert list(table) == ["plain", "probe send", "probe arrival"]
    assert sum(int(cells[0]) for cells in table.values()) == total > 0
    assert sum(int(cells[3]) for cells in table.values()) == in_band >= 1
    # At this size a probe round still falls inside the run.
    assert int(table["probe arrival"][0]) >= 1
