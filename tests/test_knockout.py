"""``tools/knockout.py``'s declarations and its committed table: every
knocked-out method resolves, and ``docs/KNOCKOUTS.md`` has one row per
mechanism. The knock-out runs themselves take minutes each and are not
run here (``make knockouts``)."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("knockout_tool", ROOT / "tools" / "knockout.py")
knockout = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(knockout)

MECHANISMS = knockout.MECHANISMS


@pytest.mark.parametrize("mechanism", MECHANISMS, ids=[m.name for m in MECHANISMS])
def test_every_declared_target_resolves(mechanism):
    owner, method, function = knockout.resolve(mechanism.target)
    assert getattr(owner, method) is function
    if mechanism.caller is not None:
        assert knockout.code_of(mechanism.caller)


def test_each_mechanism_has_exactly_one_row():
    rows = [line.split("|")[2].strip()
            for line in (ROOT / "docs" / "KNOCKOUTS.md").read_text(encoding="utf-8").splitlines()
            if line.startswith("| ") and not line.startswith("| part ")]
    assert sorted(rows) == sorted(m.name for m in MECHANISMS)


def test_a_row_scoped_to_netsim_plumbing_runs_the_tests_of_its_target():
    rows = {m.name: m for m in MECHANISMS}
    assert rows["periodic snapshot"].module == "repro.core.durability"
    assert rows["first-sighting rumor"].module == "repro.core.sharding"
    assert rows["stray sweep"].module == "repro.core.sharding"
    periodic = knockout._tests_naming(ROOT, rows["periodic snapshot"].module)
    assert "tests/test_durability.py" in periodic
    assert periodic == knockout._tests_naming(ROOT, rows["WAL-length snapshot"].module)
    assert len(periodic) < len(knockout._tests_naming(ROOT, "repro.netsim.node"))


class _Toy:
    def inner(self):
        return "ran"

    def scoped(self):
        return self.inner()

    def elsewhere(self):
        return self.inner()


def test_a_caller_scoped_knock_out_replaces_only_the_calls_from_that_caller():
    knockout.knock_out(knockout.Mechanism(
        "toy", f"{__name__}:_Toy.inner", returns="knocked out",
        caller=f"{__name__}:_Toy.scoped"))
    toy = _Toy()
    assert (toy.scoped(), toy.elsewhere(), toy.inner()) == ("knocked out", "ran", "ran")


class _Nesting:
    def inner(self):
        return "ran"

    def outer(self):
        def nested():
            return self.inner()

        return nested(), self.inner()


def test_a_caller_may_be_a_function_nested_in_a_method():
    knockout.knock_out(knockout.Mechanism(
        "toy", f"{__name__}:_Nesting.inner", returns="knocked out",
        caller=f"{__name__}:_Nesting.outer.nested"))
    assert _Nesting().outer() == ("knocked out", "ran")
