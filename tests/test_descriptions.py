"""Unit tests for the pluggable description models."""

from __future__ import annotations

import pytest

from repro.descriptions.base import DescriptionModel, ModelMatch, ModelRegistry
from repro.descriptions.semantic import SemanticModel
from repro.descriptions.template import TemplateModel, tokenize
from repro.descriptions.uri import UriModel
from repro.errors import UnsupportedModelError
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest


@pytest.fixture
def profile():
    return ServiceProfile.build(
        "ground-radar", "ncw:GroundSurveillanceRadarService",
        outputs=["ncw:GroundTrack"], text="surveillance of ground movement",
    )


# -- registry/dispatch ---------------------------------------------------------

def test_model_registry_register_and_get():
    registry = ModelRegistry([UriModel(), TemplateModel()])
    assert registry.model_ids() == ["template", "uri"]
    assert isinstance(registry.get("uri"), UriModel)


def test_model_registry_unknown_raises():
    registry = ModelRegistry()
    with pytest.raises(UnsupportedModelError):
        registry.get("semantic")


def test_model_registry_discard_counts(profile):
    """The gate: an unsupported model's payload is counted in
    ``discarded_payloads``, another model's record under a supported id in
    that model's ``malformed_payloads``; the model's own record passes."""
    registry = ModelRegistry([UriModel()])
    uri = registry.get("uri")
    description = uri.describe(profile, "svc://x")
    query = uri.query_from(ServiceRequest.build("ncw:GroundSurveillanceRadarService"))
    assert registry.for_query("nope", query) is None
    assert registry.for_description(None, description) is None
    assert registry.discarded_payloads == 2
    assert registry.for_description("uri", description) is uri
    assert registry.for_query("uri", query) is uri
    assert registry.for_description("uri", query) is None
    assert registry.for_query("uri", description) is None
    assert registry.for_query("uri", ServiceRequest.build("ncw:Radar")) is None
    assert (registry.discarded_payloads, uri.malformed_payloads) == (2, 3)
    assert registry.query_terms("uri", profile) == frozenset()  # refused, not counted
    assert uri.malformed_payloads == 3


def test_model_registry_rejects_empty_id():
    class Bad(DescriptionModel):
        model_id = ""

        def describe(self, profile, endpoint):
            return None

        def query_from(self, request):
            return None

        def evaluate(self, description, query):
            return ModelMatch.no_match()

    with pytest.raises(UnsupportedModelError):
        ModelRegistry([Bad()])


def test_model_registry_replace_plugin():
    registry = ModelRegistry([UriModel()])
    replacement = UriModel()
    registry.register(replacement)
    assert registry.get("uri") is replacement


# -- URI model ------------------------------------------------------------------

def test_uri_exact_match(profile):
    model = UriModel()
    description = model.describe(profile, "svc://x")
    query = model.query_from(
        ServiceRequest.build("ncw:GroundSurveillanceRadarService")
    )
    assert model.evaluate(description, query).matched


def test_uri_no_subsumption(profile):
    """The model's defining weakness: a broader request misses."""
    model = UriModel()
    description = model.describe(profile, "svc://x")
    query = model.query_from(ServiceRequest.build("ncw:RadarService"))
    assert not model.evaluate(description, query).matched


def test_uri_query_falls_back_to_output():
    model = UriModel()
    query = model.query_from(
        ServiceRequest.build(None, outputs=["ncw:GroundTrack"])
    )
    assert query.type_uri == "ncw:GroundTrack"


def test_uri_sizes_are_tiny(profile):
    model = UriModel()
    description = model.describe(profile, "svc://x")
    assert description.size_bytes() < 100


# -- template model ----------------------------------------------------------------

def test_tokenize_camel_case():
    assert tokenize("ncw:GroundTrackService") == \
        frozenset({"ncw", "ground", "track", "service"})


def test_tokenize_punctuation_and_case():
    assert tokenize("Fire-Truck dispatch") == frozenset({"fire", "truck", "dispatch"})


def test_template_all_tokens_must_match(profile):
    model = TemplateModel()
    description = model.describe(profile, "svc://x")
    hit = model.query_from(ServiceRequest.build(None, keywords=["ground", "radar"]))
    miss = model.query_from(ServiceRequest.build(None, keywords=["ground", "naval"]))
    assert model.evaluate(description, hit).matched
    assert not model.evaluate(description, miss).matched


def test_template_empty_query_never_matches(profile):
    model = TemplateModel()
    description = model.describe(profile, "svc://x")
    from repro.descriptions.template import TemplateQuery

    assert not model.evaluate(description, TemplateQuery(frozenset())).matched


def test_template_score_prefers_tight_records(profile):
    model = TemplateModel()
    tight = model.describe(
        ServiceProfile.build("a", "ncw:RadarService"), "svc://a"
    )
    loose = model.describe(
        ServiceProfile.build(
            "b", "ncw:RadarService",
            text="many extra words diluting the keyword bag here",
        ),
        "svc://b",
    )
    query = model.query_from(ServiceRequest.build("ncw:RadarService"))
    assert model.evaluate(tight, query).score > model.evaluate(loose, query).score


def test_template_namespace_prefixes_stripped():
    model = TemplateModel()
    query = model.query_from(ServiceRequest.build("ncw:RadarService"))
    assert "ncw" not in query.tokens


# -- semantic model -----------------------------------------------------------------

def test_semantic_requires_ontology(profile):
    model = SemanticModel()
    assert not model.can_evaluate()
    query = model.query_from(ServiceRequest.build("ncw:RadarService"))
    assert not model.evaluate(profile, query).matched
    assert model.missing_ontology_failures == 1


def test_semantic_attach_ontology_enables(profile):
    model = SemanticModel()
    model.attach_ontology(battlefield_ontology())
    assert model.can_evaluate()
    query = model.query_from(ServiceRequest.build("ncw:RadarService"))
    assert model.evaluate(profile, query).matched


def test_semantic_degree_and_score_populated(profile):
    model = SemanticModel(battlefield_ontology())
    query = model.query_from(
        ServiceRequest.build("ncw:SensorService", outputs=["ncw:Track"])
    )
    verdict = model.evaluate(profile, query)
    assert verdict.matched
    assert verdict.degree >= 1
    assert 0.0 < verdict.score <= 1.0


def test_semantic_description_is_the_profile(profile):
    model = SemanticModel(battlefield_ontology())
    assert model.describe(profile, "svc://x") is profile


def test_same_capability_three_models_size_ordering(profile):
    """E10's core claim at unit scale: uri << template << semantic."""
    from repro.netsim.messages import estimate_payload_size

    uri = UriModel().describe(profile, "svc://x")
    template = TemplateModel().describe(profile, "svc://x")
    semantic = SemanticModel(battlefield_ontology()).describe(profile, "svc://x")
    sizes = [estimate_payload_size(d) for d in (uri, template, semantic)]
    assert sizes[0] < sizes[1] < sizes[2]
    assert sizes[2] > 10 * sizes[0]
