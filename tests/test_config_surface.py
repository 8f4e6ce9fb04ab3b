"""A ratchet on the number of settable configuration values.

Every independently settable value doubles the configurations the tests
and benchmarks would have to cover, and an option nobody sets is a
branch nobody runs. The rule: a new option needs two existing callers
(experiments, examples, benchmarks — not tests) that want *different*
values; with one value in use it is a constant. Deleting an option
lowers ``CEILING``; nothing raises it without that justification in the
PR that does.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pathlib

from repro.core.config import CONFIG_CLASSES

ROOT = pathlib.Path(__file__).resolve().parents[1]

CEILING = 44


def test_settable_values_do_not_grow():
    counts = {cls.__name__: len(dataclasses.fields(cls)) for cls in CONFIG_CLASSES}
    total = sum(counts.values())
    assert total <= CEILING, (
        f"{total} settable configuration values (ceiling {CEILING}): {counts}. "
        "A new option needs two existing callers that want different values "
        "(see this file's docstring); otherwise make it a constant."
    )


def test_knob_table_is_current():
    """``docs/KNOBS.md`` is what ``tools/knob_audit.py`` makes of the tree:
    a setting added, changed or removed shows up in review as a diff of
    the table (``make knobs`` regenerates it)."""
    spec = importlib.util.spec_from_file_location("knob_audit", ROOT / "tools" / "knob_audit.py")
    knob_audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(knob_audit)
    committed = (ROOT / "docs" / "KNOBS.md").read_text(encoding="utf-8")
    assert knob_audit.audit() == committed, "docs/KNOBS.md is stale: run `make knobs`"
