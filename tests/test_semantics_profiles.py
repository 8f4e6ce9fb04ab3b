"""Unit tests for service profiles and requests."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DescriptionError
from repro.semantics import profiles
from repro.semantics.profiles import QoSConstraint, ServiceProfile, ServiceRequest


def test_profile_build_normalizes(radar_profile):
    assert radar_profile.inputs == ("ncw:GridPosition",)
    assert radar_profile.qos_value("latency_ms") == 50.0
    assert radar_profile.qos_value("missing") is None


def test_profile_requires_name_and_category():
    with pytest.raises(DescriptionError):
        ServiceProfile.build("", "cat")
    with pytest.raises(DescriptionError):
        ServiceProfile.build("name", "")


def test_profile_concepts(radar_profile):
    assert radar_profile.concepts() == frozenset({
        "ncw:AirSurveillanceRadarService", "ncw:GridPosition", "ncw:AirTrack",
    })


def test_profile_qos_dict_roundtrip(radar_profile):
    assert radar_profile.qos_dict() == {"latency_ms": 50.0, "coverage_km": 40.0}


def test_profile_is_hashable(radar_profile):
    assert hash(radar_profile) == hash(radar_profile)
    assert radar_profile in {radar_profile}


def test_profile_size_grows_with_parameters():
    small = ServiceProfile.build("s", "cat")
    big = ServiceProfile.build(
        "s", "cat",
        inputs=["a", "b"], outputs=["c", "d", "e"],
        qos={"q1": 1.0, "q2": 2.0}, text="long description " * 10,
    )
    assert big.size_bytes() > small.size_bytes() > 0


def test_profile_size_dominates_uri_string():
    """The paper: semantic advertisements are 'quite large' next to URIs."""
    profile = ServiceProfile.build("s", "ncw:RadarService", outputs=["ncw:Track"])
    assert profile.size_bytes() > 10 * len("ncw:RadarService")


def test_request_requires_some_constraint():
    with pytest.raises(DescriptionError):
        ServiceRequest.build(None)


def test_request_with_only_keywords_is_valid():
    request = ServiceRequest.build(None, keywords=["radar"])
    assert request.keywords == ("radar",)


def test_request_max_results_validation():
    with pytest.raises(DescriptionError):
        ServiceRequest.build("cat", max_results=0)


def test_request_qos_constraints_sorted():
    request = ServiceRequest.build(
        "cat", qos={"z_attr": (None, 5.0), "a_attr": (1.0, None)}
    )
    assert [c.attribute for c in request.qos_constraints] == ["a_attr", "z_attr"]


def test_qos_constraint_bounds():
    constraint = QoSConstraint("latency", minimum=10.0, maximum=100.0)
    assert constraint.satisfied_by(50.0)
    assert constraint.satisfied_by(10.0)   # inclusive
    assert constraint.satisfied_by(100.0)  # inclusive
    assert not constraint.satisfied_by(9.9)
    assert not constraint.satisfied_by(100.1)
    assert not constraint.satisfied_by(None)


def test_qos_constraint_one_sided():
    low = QoSConstraint("x", minimum=1.0)
    assert low.satisfied_by(999.0)
    high = QoSConstraint("x", maximum=1.0)
    assert high.satisfied_by(-999.0)


def test_qos_constraint_rejects_nan():
    constraint = QoSConstraint("x", minimum=0.0)
    assert not constraint.satisfied_by(float("nan"))


def test_request_size_bytes(sensor_request):
    assert sensor_request.size_bytes() > 0
    bigger = ServiceRequest.build(
        "cat", outputs=["a", "b", "c"], inputs=["d"],
        qos={"q": (0.0, 1.0)}, keywords=["k1", "k2"],
    )
    assert bigger.size_bytes() > ServiceRequest.build("cat").size_bytes()


# -- compact QoS: two parallel fields behind the old (name, value) view ------

_QOS = st.dictionaries(
    st.sampled_from(["latency_ms", "coverage_km", "confidence", "update_rate_hz"])
    | st.text(max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    max_size=6,
)


def _old_size_bytes(profile: ServiceProfile, qos: dict[str, float]) -> int:
    """``size_bytes`` as written when QoS was a tuple of pairs."""
    concept_bytes = sum(profiles._PARAMETER_BYTES + len(c.encode("utf-8"))
                        for c in (*profile.inputs, *profile.outputs))
    return (profiles._PROFILE_BASE_BYTES + len(profile.service_name.encode("utf-8"))
            + len(profile.category.encode("utf-8")) + concept_bytes
            + len(tuple(sorted(qos.items()))) * profiles._QOS_BYTES
            + len(profile.text.encode("utf-8")))


def _same_value(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=200, deadline=None)
@given(qos=_QOS, probe=st.text(max_size=6))
def test_compact_qos_reads_as_the_old_pairs(qos, probe):
    profile = ServiceProfile.build("svc", "ncw:RadarService", outputs=["ncw:AirTrack"],
                                   qos=qos, provider="lan-0", text="radar")
    assert profile.qos_dict() == qos
    assert profile.qos == tuple(sorted(qos.items()))
    assert profile.qos_names == tuple(sorted(qos))
    for name, value in qos.items():
        assert profile.qos_value(name) is value
    assert profile.qos_value(probe) is qos.get(probe)
    assert profile.size_bytes() == _old_size_bytes(profile, qos)


@settings(max_examples=200, deadline=None)
@given(qos=_QOS, data=st.data())
def test_compact_qos_is_order_free_and_shares_its_names(qos, data):
    shuffled = dict(data.draw(st.permutations(list(qos.items()))))
    a = ServiceProfile.build("svc", "cat", qos=qos, provider="p")
    b = ServiceProfile.build("svc", "cat", qos=shuffled, provider="p")
    assert a == b and hash(a) == hash(b)
    # Other values, the same attribute set: one names tuple between them.
    c = ServiceProfile.build("other", "cat", qos={name: 0.0 for name in reversed(qos)})
    assert a.qos_names is b.qos_names is c.qos_names
    assert a.provider is b.provider


@settings(max_examples=200, deadline=None)
@given(qos=_QOS)
def test_compact_qos_survives_a_pickle_round_trip(qos):
    """The WAL pickles profiles: replay must give back an equal profile,
    as compact as a built one."""
    profile = ServiceProfile.build("svc", "ncw:RadarService", inputs=["ncw:GridPosition"],
                                   outputs=["ncw:AirTrack"], qos=qos, provider="lan-0")
    restored = pickle.loads(pickle.dumps(profile))
    assert restored.qos_names is profile.qos_names
    assert restored.provider is profile.provider and restored.category is profile.category
    assert all(map(_same_value, restored.qos_values, profile.qos_values))
    assert len(restored.qos_values) == len(profile.qos_values)
    if not any(math.isnan(v) for v in qos.values()):
        assert restored == profile and hash(restored) == hash(profile)


def test_qos_fields_must_pair_up():
    with pytest.raises(DescriptionError):
        ServiceProfile("svc", "cat", qos_names=("a", "b"), qos_values=(1.0,))


# -- sizes: UTF-8 lengths without encoding ASCII -------------------------------

def _utf8(text: str) -> int:
    return len(text.encode("utf-8"))


def _encoded_profile_size(profile: ServiceProfile) -> int:
    return (profiles._PROFILE_BASE_BYTES + _utf8(profile.service_name) + _utf8(profile.category)
            + sum(profiles._PARAMETER_BYTES + _utf8(c)
                  for c in (*profile.inputs, *profile.outputs))
            + len(profile.qos_names) * profiles._QOS_BYTES + _utf8(profile.text))


def _encoded_request_size(request: ServiceRequest) -> int:
    return (profiles._REQUEST_BASE_BYTES + (_utf8(request.category) if request.category else 0)
            + sum(profiles._PARAMETER_BYTES + _utf8(c)
                  for c in (*request.desired_outputs, *request.provided_inputs))
            + len(request.qos_constraints) * profiles._QOS_BYTES
            + sum(_utf8(k) for k in request.keywords))


_WORD = st.text(min_size=1, max_size=8)
_WORDS = st.lists(_WORD, max_size=4)


@settings(max_examples=300, deadline=None)
@given(name=_WORD, category=_WORD, inputs=_WORDS, outputs=_WORDS, text=st.text(max_size=20),
       keywords=_WORDS, qos=st.lists(_WORD, max_size=3, unique=True))
def test_sizes_are_the_utf8_lengths_of_any_text(name, category, inputs, outputs, text,
                                                keywords, qos):
    profile = ServiceProfile.build(name, category, inputs=inputs, outputs=outputs,
                                   qos={q: 1.0 for q in qos}, text=text)
    assert profile.size_bytes() == _encoded_profile_size(profile)
    request = ServiceRequest.build(category, outputs=outputs, inputs=inputs,
                                   qos={q: (0.0, None) for q in qos}, keywords=keywords)
    assert request.size_bytes() == request.size_bytes() == _encoded_request_size(request)


def test_a_request_keeps_its_size_outside_its_value():
    request = ServiceRequest.build("ncw:Sensör", outputs=["ncw:Track"], keywords=["ü"])
    twin = ServiceRequest.build("ncw:Sensör", outputs=["ncw:Track"], keywords=["ü"])
    assert request._size is None
    size = request.size_bytes()
    assert request._size == size == _encoded_request_size(request)
    assert request == twin and hash(request) == hash(twin) and repr(request) == repr(twin)
