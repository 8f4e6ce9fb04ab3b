"""Unit tests for the degree-of-match matchmaker."""

from __future__ import annotations

import pytest

from repro.semantics.matchmaker import DegreeOfMatch, Matchmaker
from repro.semantics.ontology import Ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest
from repro.semantics.reasoner import Reasoner


@pytest.fixture
def ont():
    o = Ontology("mm")
    o.add_subtree("Service", {
        "SensorService": {"RadarService": {"AirRadarService": {}}},
        "MapService": {},
    })
    o.add_subtree("Data", {
        "Track": {"AirTrack": {}, "GroundTrack": {}},
        "Map": {},
    })
    return o


@pytest.fixture
def mm(ont):
    return Matchmaker(Reasoner(ont))


def _profile(category="RadarService", outputs=("AirTrack",), inputs=(), qos=None):
    return ServiceProfile.build(
        "svc", category, inputs=list(inputs), outputs=list(outputs), qos=qos or {}
    )


# -- concept degrees --------------------------------------------------------

def test_exact_same_concept(mm):
    assert mm.concept_degree("Track", "Track") is DegreeOfMatch.EXACT


def test_exact_direct_subclass_rule(mm):
    # Requested is a DIRECT subclass of advertised: Paolucci's exact case.
    assert mm.concept_degree("AirTrack", "Track") is DegreeOfMatch.EXACT


def test_plugin_when_advertised_more_general(mm):
    # Advertised subsumes requested from further away.
    assert mm.concept_degree("AirRadarService", "SensorService") is DegreeOfMatch.PLUGIN


def test_subsumes_when_advertised_more_specific(mm):
    assert mm.concept_degree("Track", "AirTrack") is DegreeOfMatch.SUBSUMES


def test_fail_when_unrelated(mm):
    assert mm.concept_degree("Track", "Map") is DegreeOfMatch.FAIL


def test_fail_when_concept_unknown(mm):
    assert mm.concept_degree("Track", "alien:Thing") is DegreeOfMatch.FAIL
    assert mm.concept_degree("alien:Thing", "Track") is DegreeOfMatch.FAIL


def test_degree_ordering():
    assert DegreeOfMatch.EXACT > DegreeOfMatch.PLUGIN > DegreeOfMatch.SUBSUMES \
        > DegreeOfMatch.FAIL


# -- profile-level matching ---------------------------------------------------

def test_exact_match_full_profile(mm):
    request = ServiceRequest.build("RadarService", outputs=["AirTrack"])
    result = mm.match(_profile(), request)
    assert result.degree is DegreeOfMatch.EXACT
    assert result.matched


def test_generalized_request_matches_special_service(mm):
    # Ask for SensorService/Track, advertised RadarService/AirTrack.
    request = ServiceRequest.build("SensorService", outputs=["Track"])
    result = mm.match(_profile(), request)
    assert result.matched
    # Category: RadarService is a direct subclass of... requested
    # SensorService subsumes advertised RadarService (direct child =>
    # Paolucci exact is requested-direct-subclass-of-advertised, which is
    # the other direction) -> SUBSUMES here; outputs likewise.
    assert result.degree >= DegreeOfMatch.SUBSUMES


def test_every_requested_output_must_be_served(mm):
    request = ServiceRequest.build(None, outputs=["AirTrack", "Map"])
    result = mm.match(_profile(outputs=("AirTrack",)), request)
    assert result.degree is DegreeOfMatch.FAIL


def test_weakest_link_degree(mm):
    # One requested output exact (AirTrack), the other (Track) only
    # satisfied by more-specific advertised outputs => SUBSUMES; the
    # overall output degree is the weakest link.
    request = ServiceRequest.build(None, outputs=["AirTrack", "Track"])
    profile = _profile(outputs=("AirTrack", "GroundTrack"))
    result = mm.match(profile, request)
    assert result.output_degree is DegreeOfMatch.SUBSUMES
    assert result.matched


def test_unrelated_category_fails(mm):
    request = ServiceRequest.build("MapService", outputs=["AirTrack"])
    result = mm.match(_profile(), request)
    assert not result.matched


def test_input_direction(mm):
    # The service requires a Track input; client provides AirTrack (more
    # specific) — acceptable.
    request = ServiceRequest.build("RadarService", inputs=["AirTrack"])
    profile = _profile(inputs=("Track",))
    assert mm.match(profile, request).matched
    # Client provides something unrelated: fail.
    request_bad = ServiceRequest.build("RadarService", inputs=["Map"])
    assert not mm.match(profile, request_bad).matched


def test_no_declared_inputs_is_unconstrained(mm):
    request = ServiceRequest.build("RadarService")
    profile = _profile(inputs=("Track",))
    assert mm.match(profile, request).matched


def test_qos_constraint_filters(mm):
    profile = _profile(qos={"latency_ms": 200.0})
    ok = ServiceRequest.build("RadarService", qos={"latency_ms": (None, 500.0)})
    bad = ServiceRequest.build("RadarService", qos={"latency_ms": (None, 100.0)})
    assert mm.match(profile, ok).matched
    result = mm.match(profile, bad)
    assert not result.matched
    assert result.failed_constraints == ("latency_ms",)


def test_missing_qos_attribute_fails_constraint(mm):
    profile = _profile()  # no QoS at all
    request = ServiceRequest.build("RadarService", qos={"latency_ms": (None, 100.0)})
    assert not mm.match(profile, request).matched


def test_rank_orders_by_degree_then_score(mm):
    exact = ServiceProfile.build("exact", "RadarService", outputs=["AirTrack"])
    general = ServiceProfile.build("general", "SensorService", outputs=["Track"])
    request = ServiceRequest.build("RadarService", outputs=["AirTrack"])
    ranked = mm.rank([general, exact], request)
    assert [r.profile.service_name for r in ranked][0] == "exact"


def test_rank_limit_is_response_control(mm):
    profiles = [
        ServiceProfile.build(f"svc-{i}", "RadarService", outputs=["AirTrack"])
        for i in range(10)
    ]
    request = ServiceRequest.build("RadarService")
    assert len(mm.rank(profiles, request, limit=3)) == 3
    assert len(mm.rank(profiles, request)) == 10


def test_rank_excludes_failures(mm):
    bad = ServiceProfile.build("bad", "MapService", outputs=["Map"])
    request = ServiceRequest.build("RadarService", outputs=["AirTrack"])
    assert mm.rank([bad], request) == []


def test_rank_deterministic_tie_break(mm):
    twins = [
        ServiceProfile.build(name, "RadarService", outputs=["AirTrack"])
        for name in ("b-svc", "a-svc")
    ]
    request = ServiceRequest.build("RadarService")
    ranked = mm.rank(twins, request)
    assert [r.profile.service_name for r in ranked] == ["a-svc", "b-svc"]


def test_score_in_unit_interval(mm):
    request = ServiceRequest.build("SensorService", outputs=["Track"])
    result = mm.match(_profile(), request)
    assert 0.0 <= result.score <= 1.0


def test_evaluation_counter(mm):
    before = mm.evaluations
    mm.match(_profile(), ServiceRequest.build("RadarService"))
    assert mm.evaluations == before + 1


def test_similarity_levels_group_every_class_by_its_pair_similarity(ont, mm):
    """Each class sits at exactly one level, whose value is the similarity
    the pair tables score it with; values strictly descend from the concept
    itself at 1.0 and end with the 0.0 of a concept outside the ontology.
    The levels are memoized and follow the ontology version."""
    values, classes = mm.similarity_levels("AirTrack")
    assert values[0] == 1.0 and "AirTrack" in classes[0]
    assert list(values[:-1]) == sorted(set(values[:-1]), reverse=True) and values[-1] == 0.0
    assert len(values) == len(classes) + 1
    placed = [c for level in classes for c in level]
    assert sorted(placed) == ont.classes()
    for value, level in zip(values, classes):
        for advertised in level:
            assert mm._table("AirTrack")[advertised][1] == value
    assert mm.similarity_levels("AirTrack") is mm.similarity_levels("AirTrack")
    assert mm.similarity_levels("NoSuchConcept") == ((0.0,), ())
    ont.add_class("NewTrack", ["Track"])
    assert "NewTrack" in {c for level in mm.similarity_levels("AirTrack")[1] for c in level}


# -- the request plan and the pair tables can never go stale -------------------
#
# ``match`` resolves a request once (a single-slot plan keyed by request
# identity and ontology version) and reads concept pairs from self-filling
# tables. The reference below is deliberately naive — straight from the
# module docstring's rules, over the bare ``Ontology`` — and shares no code
# with either.

def _naive_degree(ont, requested, advertised):
    if requested not in ont or advertised not in ont:
        return DegreeOfMatch.FAIL
    if requested == advertised or advertised in ont.parents(requested):
        return DegreeOfMatch.EXACT
    if advertised in ont.ancestors(requested):
        return DegreeOfMatch.PLUGIN
    if requested in ont.ancestors(advertised):
        return DegreeOfMatch.SUBSUMES
    return DegreeOfMatch.FAIL


def _naive_similarity(ont, a, b):
    if a == b:
        return 1.0
    common = (ont.ancestors(a) | {a}) & (ont.ancestors(b) | {b})
    denominator = ont.depth(a) + ont.depth(b)
    if denominator == 0:
        return 1.0
    return min(1.0, (2.0 * max(ont.depth(c) for c in common)) / denominator)


def _naive_match(ont, profile, request):
    fail = DegreeOfMatch.FAIL
    qos = dict(profile.qos)
    failed = tuple(
        c.attribute for c in request.qos_constraints
        if qos.get(c.attribute) is None
        or (c.minimum is not None and qos[c.attribute] < c.minimum)
        or (c.maximum is not None and qos[c.attribute] > c.maximum)
    )
    if failed:
        return (profile, fail, 0.0, fail, fail, fail, failed)
    category = DegreeOfMatch.EXACT if request.category is None \
        else _naive_degree(ont, request.category, profile.category)
    output = min(
        (max((_naive_degree(ont, wanted, out) for out in profile.outputs), default=fail)
         for wanted in request.desired_outputs),
        default=DegreeOfMatch.EXACT,
    )
    inputs = DegreeOfMatch.EXACT
    if profile.inputs and request.provided_inputs:
        inputs = min(
            max(_naive_degree(ont, needed, given) for given in request.provided_inputs)
            for needed in profile.inputs
        )
    overall = min(category, output, inputs)
    score = 0.0
    if overall > fail:
        parts = []
        if request.category is not None and request.category in ont \
                and profile.category in ont:
            parts.append(_naive_similarity(ont, request.category, profile.category))
        for wanted in request.desired_outputs:
            if wanted in ont:
                parts.append(max(
                    (_naive_similarity(ont, wanted, out)
                     for out in profile.outputs if out in ont),
                    default=0.0,
                ))
        if request.qos_constraints:
            parts.append(1.0)
        score = sum(parts) / len(parts) if parts else 1.0
    return (profile, overall, score, output, inputs, category, ())


def _fields(result):
    return (result.profile, result.degree, result.score, result.output_degree,
            result.input_degree, result.category_degree, result.failed_constraints)


def _sweep(seed, n_profiles=40, n_requests=60):
    """A generated ontology with profiles and requests covering every branch
    of ``match``: no category, 0-3 outputs, provided inputs, QoS that passes /
    fails / names an absent attribute, alien concepts on either side, and
    profiles without outputs."""
    import random

    from repro.semantics.generator import OntologyGenerator, ProfileGenerator

    ont = OntologyGenerator(seed).random_ontology(n_service_classes=15, n_data_classes=25)
    gen = ProfileGenerator(ont, seed=seed)
    rng = random.Random(seed)
    categories = gen.category_pool + ["alien:Service"]
    data = gen.data_pool + ["alien:Data"]
    profiles = gen.profiles(n_profiles // 2)
    for i in range(n_profiles - len(profiles)):
        profiles.append(ServiceProfile.build(
            f"odd-{i}", rng.choice(categories),
            inputs=rng.sample(data, rng.randint(0, 2)),
            outputs=rng.sample(data, rng.randint(0, 3)),
            qos={"latency_ms": rng.uniform(10, 400)} if rng.random() < 0.6 else {},
        ))
    requests = []
    while len(requests) < n_requests:
        outputs = rng.sample(data, rng.randint(0, 3))
        category = rng.choice(categories) if rng.random() < 0.7 else None
        if category is None and not outputs:
            continue
        requests.append(ServiceRequest.build(
            category, outputs=outputs,
            inputs=rng.sample(data, rng.randint(0, 3)) if rng.random() < 0.5 else [],
            qos=rng.choice([None, None, {"latency_ms": (None, 200.0)},
                            {"latency_ms": (None, 1e6)}, {"no_such_attr": (0.0, None)}]),
        ))
    return ont, profiles, requests


@pytest.mark.parametrize("seed", range(3))
def test_match_equals_naive_reference_on_a_seeded_sweep(seed):
    ont, profiles, requests = _sweep(seed)
    mm = Matchmaker(Reasoner(ont))
    degrees_seen = set()
    # Request-major (a registry's order), then profile-major (the plan slot
    # is replaced on every call): 2 x 2400 pairs per seed.
    pairs = [(p, r) for r in requests for p in profiles] \
        + [(p, r) for p in profiles for r in requests]
    for profile, request in pairs:
        result = mm.match(profile, request)
        assert _fields(result) == _naive_match(ont, profile, request), (profile, request)
        degrees_seen.add(result.degree)
    assert degrees_seen == set(DegreeOfMatch)  # the sweep reaches every verdict
    assert mm.plans_built == len(requests) + len(profiles) * len(requests)


def test_same_request_object_sees_ontology_growth(ont, mm):
    """E12's repository fetch: the plan built before ``add_class`` must not
    answer after it."""
    profile = _profile(outputs=("SonarTrack",))
    request = ServiceRequest.build("RadarService", outputs=["Track"])
    before = mm.match(profile, request)
    assert before.degree is DegreeOfMatch.FAIL and mm.plans_built == 1
    assert mm.match(profile, request) == before and mm.plans_built == 1
    ont.add_class("SonarTrack", parents=["Track"])
    after = mm.match(profile, request)
    assert after.degree is DegreeOfMatch.SUBSUMES and mm.plans_built == 2
    assert _fields(after) == _naive_match(ont, profile, request)
    assert mm.concept_degree("Track", "SonarTrack") is DegreeOfMatch.SUBSUMES


def test_alternating_and_equal_but_distinct_requests(ont, mm):
    first = ServiceRequest.build("SensorService", outputs=["Track"])
    second = ServiceRequest.build("RadarService", outputs=["AirTrack"])
    twin = ServiceRequest.build("SensorService", outputs=["Track"])
    assert twin == first and twin is not first
    profiles = [_profile(), _profile(outputs=("GroundTrack", "Map")),
                _profile(category="MapService", outputs=("Map",))]
    expected = {id(r): [_naive_match(ont, p, r) for p in profiles]
                for r in (first, second, twin)}
    for _round in range(3):
        for request in (first, second, twin, first):
            assert [_fields(mm.match(p, request)) for p in profiles] \
                == expected[id(request)]
    assert expected[id(first)] == expected[id(twin)]
    # Identity keys the slot: an equal twin is a new plan, never a wrong one;
    # only a round's closing ``first`` is still in the slot when the next opens.
    assert mm.plans_built == 4 + 3 + 3


def test_one_request_object_against_two_matchmakers(ont, mm):
    other_ont = Ontology("other")
    other_ont.add_subtree("Service", {"RadarService": {}})
    other_ont.add_subtree("Data", {"AirTrack": {"Track": {}}})  # inverted
    other = Matchmaker(Reasoner(other_ont))
    request = ServiceRequest.build("RadarService", outputs=["Track"])
    profile = _profile()
    for _round in range(2):
        here, there = mm.match(profile, request), other.match(profile, request)
        assert _fields(here) == _naive_match(ont, profile, request)
        assert _fields(there) == _naive_match(other_ont, profile, request)
    assert here.output_degree is DegreeOfMatch.SUBSUMES
    assert there.output_degree is DegreeOfMatch.EXACT  # Track's direct parent
    assert mm.plans_built == other.plans_built == 1
