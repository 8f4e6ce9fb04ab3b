"""Unit tests for query evaluation and response merging."""

from __future__ import annotations

import pytest

from repro.descriptions.base import ModelRegistry
from repro.descriptions.semantic import SemanticModel
from repro.descriptions.uri import UriModel
from repro.registry.advertisements import Advertisement
from repro.registry.matching import QueryEvaluator, QueryHit
from repro.registry.rim import RegistryInfoModel
from repro.registry.store import AdvertisementStore
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest


def _uri_ad(ad_id, type_uri):
    model = UriModel()
    profile = ServiceProfile.build(ad_id, type_uri)
    return Advertisement(
        ad_id=ad_id, service_node=f"node-{ad_id}", service_name=ad_id,
        endpoint=f"svc://{ad_id}", model_id="uri",
        description=model.describe(profile, f"svc://{ad_id}"),
    )


@pytest.fixture
def evaluator():
    store = AdvertisementStore()
    models = ModelRegistry([UriModel(), SemanticModel(battlefield_ontology())])
    store.put(_uri_ad("ad-1", "ncw:RadarService"))
    store.put(_uri_ad("ad-2", "ncw:RadarService"))
    store.put(_uri_ad("ad-3", "ncw:MessagingService"))
    return QueryEvaluator(store, models)


def _uri_query(type_uri):
    return UriModel().query_from(ServiceRequest.build(type_uri))


def test_evaluate_matches_model_scoped(evaluator):
    hits = evaluator.evaluate("uri", _uri_query("ncw:RadarService"))
    assert [h.advertisement.ad_id for h in hits] == ["ad-1", "ad-2"]
    assert evaluator.queries_evaluated == 1


def test_evaluate_response_control(evaluator):
    hits = evaluator.evaluate("uri", _uri_query("ncw:RadarService"), max_results=1)
    assert len(hits) == 1
    assert hits[0].advertisement.ad_id == "ad-1"  # deterministic tie-break


def test_evaluate_unknown_model_discarded(evaluator):
    assert evaluator.evaluate("wsdl2", object()) == []
    assert evaluator.queries_discarded == 1


def test_evaluate_unevaluable_model_discarded():
    store = AdvertisementStore()
    models = ModelRegistry([SemanticModel()])  # no ontology attached
    evaluator = QueryEvaluator(store, models)
    query = ServiceRequest.build("ncw:RadarService")
    assert evaluator.evaluate("semantic", query) == []
    assert evaluator.queries_discarded == 1


def test_semantic_hits_ranked_by_degree():
    ontology = battlefield_ontology()
    store = AdvertisementStore()
    model = SemanticModel(ontology)
    for name, category in (
        ("exact", "ncw:RadarService"),
        ("narrow", "ncw:AirSurveillanceRadarService"),
    ):
        profile = ServiceProfile.build(name, category, outputs=["ncw:AirTrack"])
        store.put(Advertisement(
            ad_id=f"ad-{name}", service_node=name, service_name=name,
            endpoint=f"svc://{name}", model_id="semantic", description=profile,
        ))
    evaluator = QueryEvaluator(store, ModelRegistry([model]))
    query = ServiceRequest.build("ncw:RadarService")
    hits = evaluator.evaluate("semantic", query)
    assert hits[0].advertisement.service_name == "exact"
    assert hits[0].degree > hits[-1].degree


def test_merge_dedupes_by_uuid(evaluator):
    batch = evaluator.evaluate("uri", _uri_query("ncw:RadarService"))
    merged = QueryEvaluator.merge([batch, batch, batch])
    assert len(merged) == 2


def test_merge_keeps_best_ranked_copy():
    ad = _uri_ad("ad-x", "t")
    weak = QueryHit(advertisement=ad, degree=1, score=0.2)
    strong = QueryHit(advertisement=ad, degree=3, score=0.9)
    merged = QueryEvaluator.merge([[weak], [strong]])
    assert merged == [strong]


def test_merge_respects_max_results():
    batches = [[QueryHit(_uri_ad(f"ad-{i}", "t"), 1, 0.5)] for i in range(5)]
    assert len(QueryEvaluator.merge(batches, max_results=2)) == 2


def test_merge_empty():
    assert QueryEvaluator.merge([]) == []
    assert QueryEvaluator.merge([[], []]) == []


def test_hit_sizes_track_advertisement():
    hit = QueryHit(_uri_ad("ad-1", "t"), 1, 0.5)
    assert hit.size_bytes() > 0


# -- RIM ---------------------------------------------------------------------

def test_rim_describe_and_stats():
    rim = RegistryInfoModel(registry_id="r1", lan_name="lan-a",
                            supported_models=["uri", "semantic"])
    desc = rim.describe(advertisement_count=3, neighbor_count=2,
                        artifact_names=("battlefield",))
    assert desc.registry_id == "r1"
    assert desc.supported_models == ("semantic", "uri")
    assert desc.artifact_names == ("battlefield",)
    assert desc.size_bytes() > 0
    rim.publishes += 1
    assert rim.stats()["publishes"] == 1
