"""Unit tests for the subsumption reasoner."""

from __future__ import annotations

import pytest

from repro.semantics.ontology import Ontology, THING
from repro.semantics.reasoner import Reasoner


@pytest.fixture
def ont():
    o = Ontology("vehicles")
    o.add_subtree("Vehicle", {
        "LandVehicle": {"Car": {"Sedan": {}, "SUV": {}}, "Truck": {}},
        "WaterVehicle": {"Boat": {}},
    })
    return o


@pytest.fixture
def r(ont):
    return Reasoner(ont)


def test_subsumes_reflexive(r):
    assert r.subsumes("Car", "Car")


def test_subsumes_direct_and_transitive(r):
    assert r.subsumes("LandVehicle", "Car")
    assert r.subsumes("Vehicle", "Sedan")
    assert r.subsumes(THING, "Boat")


def test_subsumes_direction_matters(r):
    assert not r.subsumes("Car", "Vehicle")
    assert not r.subsumes("Sedan", "Car")


def test_unrelated_not_subsumed(r):
    assert not r.subsumes("Car", "Boat")
    assert not r.subsumes("Boat", "Car")


def test_paper_example():
    """'a Radar is a kind of Sensor' — the paper's own inference case."""
    from repro.semantics.generator import battlefield_ontology

    r = Reasoner(battlefield_ontology())
    assert r.subsumes("ncw:Sensor", "ncw:Radar")
    assert not r.subsumes("ncw:Radar", "ncw:Sensor")


def test_related_symmetric(r):
    assert r.related("Car", "Vehicle")
    assert r.related("Vehicle", "Car")
    assert not r.related("Car", "Boat")


def test_lca_of_siblings(r):
    assert r.lca_set("Sedan", "SUV") == frozenset({"Car"})


def test_lca_across_branches(r):
    assert r.lca_set("Car", "Boat") == frozenset({"Vehicle"})


def test_lca_with_self(r):
    assert r.lca_set("Car", "Car") == frozenset({"Car"})


def test_lca_with_ancestor(r):
    assert r.lca_set("Sedan", "LandVehicle") == frozenset({"LandVehicle"})


def test_distance_zero_for_identical(r):
    assert r.distance("Car", "Car") == 0


def test_distance_counts_edges(r):
    assert r.distance("Sedan", "SUV") == 2
    assert r.distance("Sedan", "Car") == 1
    assert r.distance("Sedan", "Boat") == 5  # Sedan(4)+Boat(3)-2*Vehicle(1)... depths


def test_distance_symmetric(r):
    assert r.distance("Car", "Boat") == r.distance("Boat", "Car")


def test_similarity_bounds(r):
    assert r.similarity("Car", "Car") == 1.0
    assert 0.0 < r.similarity("Sedan", "Boat") < 1.0


def test_similarity_monotone_with_closeness(r):
    assert r.similarity("Sedan", "SUV") > r.similarity("Sedan", "Boat")


def test_cache_invalidation_on_ontology_change(ont, r):
    assert not r.subsumes("Vehicle", "Hovercraft") if "Hovercraft" in ont else True
    # warm the cache
    assert r.subsumes("Vehicle", "Car")
    ont.add_class("Hovercraft", parents=["LandVehicle", "WaterVehicle"])
    assert r.subsumes("Vehicle", "Hovercraft")
    assert r.subsumes("WaterVehicle", "Hovercraft")


def test_depth_cache_matches_ontology(ont, r):
    for cls in ont.classes():
        assert r.depth_of(cls) == ont.depth(cls)


def test_subsumption_counter_increments(r):
    before = r.subsumption_checks
    r.subsumes("Vehicle", "Car")
    assert r.subsumption_checks == before + 1


def test_sync_is_noop_on_stable_ontology(ont, r):
    r.subsumes("Vehicle", "Car")  # warm
    cached = dict(r._ancestor_cache)
    r.sync()
    assert dict(r._ancestor_cache) == cached  # nothing dropped


# -- cache-regression guards --------------------------------------------------
#
# The query path relies on two memoization layers staying effective: the
# reasoner's ancestor caches and the matchmaker's per-ontology-version
# degree cache. These counter assertions fail if either silently stops
# caching (e.g. an accidental per-call invalidation).

def test_repeated_match_does_not_rerun_subsumption(ont, r):
    from repro.semantics.matchmaker import Matchmaker
    from repro.semantics.profiles import ServiceProfile, ServiceRequest

    mm = Matchmaker(r)
    profile = ServiceProfile.build("svc", "Car", outputs=["Sedan"])
    request = ServiceRequest.build("LandVehicle", outputs=["Car"])  # PLUGIN-ish
    mm.match(profile, request)
    warm_checks = r.subsumption_checks
    warm_evals = mm.evaluations
    assert warm_checks > 0  # the first pass really did reason
    for _ in range(5):
        assert mm.match(profile, request).matched
    assert mm.evaluations == warm_evals + 5
    # Every concept degree was memoized: zero new subsumption checks.
    assert r.subsumption_checks == warm_checks


def test_degree_cache_invalidated_by_version_bump(ont, r):
    from repro.semantics.matchmaker import Matchmaker
    from repro.semantics.profiles import ServiceProfile, ServiceRequest

    mm = Matchmaker(r)
    profile = ServiceProfile.build("svc", "Car", outputs=["Sedan"])
    request = ServiceRequest.build("LandVehicle", outputs=["Car"])
    mm.match(profile, request)
    warm_checks = r.subsumption_checks
    warm_tables = dict(mm._pair_tables)
    assert warm_tables["Car"]["Sedan"][0] is not None  # the degree memo
    ont.add_class("Hovercraft", parents=["LandVehicle", "WaterVehicle"])
    mm.match(profile, request)  # must re-reason against the new version
    assert r.subsumption_checks > warm_checks
    # Every pair table was dropped wholesale and refilled, none reused.
    assert mm._pair_tables.keys() == warm_tables.keys()
    assert all(mm._pair_tables[c] is not warm_tables[c] for c in warm_tables)


# -- closure bitsets ----------------------------------------------------------
#
# Subsumption is backed by precomputed ancestor-or-self bitsets over the
# ontology's dense concept-id space. The bitsets must agree with the
# set-based closure exactly, and must be rebuilt (not served stale) after
# the ontology's version counter advances.

def test_closure_bits_match_ancestor_sets(ont, r):
    for uri in ont.classes():
        expected = set(ont.ancestors(uri)) | {uri}
        expanded = set(ont.uris_from_bits(r.closure_bits(uri)))
        assert expanded == expected, uri


def test_closure_bits_are_ancestor_or_self(r, ont):
    bits = r.closure_bits("Sedan")
    assert bits >> ont.concept_id("Sedan") & 1
    assert bits >> ont.concept_id("Car") & 1
    assert bits >> ont.concept_id("Vehicle") & 1
    assert bits >> ont.concept_id(THING) & 1
    assert not bits >> ont.concept_id("Boat") & 1


def test_subsumes_unknown_general_is_false_not_error(r):
    assert not r.subsumes("NotAClass", "Car")


def test_subsumes_unknown_specific_raises(r):
    from repro.errors import UnknownClassError

    with pytest.raises(UnknownClassError):
        r.subsumes("Car", "NotAClass")


def test_closure_bits_refresh_on_version_bump(ont, r):
    before = r.closure_bits("Car")
    ont.add_class("RaceCar", parents=["Car"])
    after = r.closure_bits("RaceCar")
    assert before == r.closure_bits("Car")  # old class closure unchanged
    assert set(ont.uris_from_bits(after)) == {"RaceCar", "Car", "LandVehicle",
                                              "Vehicle", THING}
    # Multi-parent growth reaches existing classes too: a new edge must
    # invalidate the memo, not extend a stale bitset.
    ont.add_class("Amphibian", parents=["Car", "Boat"])
    bits = r.closure_bits("Amphibian")
    assert set(ont.uris_from_bits(bits)) >= {"Car", "Boat", "Amphibian"}
    assert r.subsumes("WaterVehicle", "Amphibian")


def test_closure_bits_multiple_inheritance_unions_parents(ont, r):
    ont.add_class("Hybrid", parents=["Car", "Boat"])
    bits = r.closure_bits("Hybrid")
    expected = set(ont.ancestors("Hybrid")) | {"Hybrid"}
    assert set(ont.uris_from_bits(bits)) == expected
