"""The verdict rule of ``tools/perf_pairs.py`` on hand-made samples."""

from __future__ import annotations

import importlib.util
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
