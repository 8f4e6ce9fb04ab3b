"""Metamorphic relations: how an answer must (not) change when the input
changes in a known way.

Each relation compares two runs instead of one run against expected
values, so it needs no hand-labelled relevance: the same ads put in
another order, the same ontology built in another order, and an extra ad
that matches nothing must all leave every ranking bit for bit as it was —
same ids, versions, degrees and score floats — on the indexed path and on
the linear scan alike.
"""

from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.config import DiscoveryConfig
from repro.descriptions.template import TemplateModel
from repro.descriptions.uri import UriModel
from repro.semantics.generator import OntologyGenerator, ProfileGenerator
from repro.semantics.ontology import THING, Ontology
from repro.workloads.scenarios import ScenarioSpec, build_scenario
from tests.deployments import SETTLE_AT
from tests.test_query_path_properties import _TwinPaths, _ad, _request_corpus, _rows

STORE_SIZE = 40
SEEDS = st.integers(min_value=0, max_value=10_000)
RELATION = settings(max_examples=12, deadline=None)


def _case(seed: int):
    """A small random ontology, a store's profiles and a request corpus."""
    ontology = OntologyGenerator(seed).random_ontology(n_service_classes=16,
                                                       n_data_classes=24)
    gen = ProfileGenerator(ontology, seed=seed)
    profiles = gen.profiles(STORE_SIZE)
    requests = list(_request_corpus(gen, profiles, random.Random(seed)))
    return ontology, gen, profiles, requests


def _rankings(paths: _TwinPaths, requests) -> list:
    """Every request's ranking on both paths, capped and uncapped."""
    return [_rows(evaluator.evaluate("semantic", request, max_results=cap))
            for request in requests for cap in (request.max_results, None)
            for evaluator in (paths.indexed, paths.linear)]


def _loaded(ontology: Ontology, ads) -> _TwinPaths:
    paths = _TwinPaths(ontology)
    for ad in ads:
        paths.put(ad)
    return paths


@RELATION
@given(seed=SEEDS)
def test_ad_order_does_not_change_a_ranking(seed):
    ontology, _, profiles, requests = _case(seed)
    ads = [_ad(i, profile) for i, profile in enumerate(profiles)]
    shuffled = ads[:]
    random.Random(seed).shuffle(shuffled)
    assert _rankings(_loaded(ontology, shuffled), requests) \
        == _rankings(_loaded(ontology, ads), requests)


def _rebuilt_in_shuffled_order(ontology: Ontology, rng: random.Random) -> Ontology:
    """The same classes, edges and properties, the classes added in a random
    topological order (so every concept gets another dense id)."""
    copy = Ontology(ontology.name)
    pending = [c for c in ontology.classes() if c != THING]
    while pending:
        ready = [c for c in pending if all(p in copy for p in ontology.parents(c))]
        concept = rng.choice(ready)
        copy.add_class(concept, parents=sorted(ontology.parents(concept)))
        pending.remove(concept)
    for prop in ontology.properties():
        copy.add_property(prop.name, prop.domain, prop.range)
    return copy


@RELATION
@given(seed=SEEDS)
def test_class_order_does_not_change_a_ranking(seed):
    ontology, _, profiles, requests = _case(seed)
    copy = _rebuilt_in_shuffled_order(ontology, random.Random(seed))
    assert list(copy.iter_edges()) == list(ontology.iter_edges())
    assert [copy.concept_id(c) for c in ontology.classes()] \
        != [ontology.concept_id(c) for c in ontology.classes()]
    ads = [_ad(i, profile) for i, profile in enumerate(profiles)]
    assert _rankings(_loaded(copy, ads), requests) \
        == _rankings(_loaded(ontology, ads), requests)


@RELATION
@given(seed=SEEDS)
def test_an_ad_that_matches_nothing_changes_no_answer(seed):
    """Two kinds of extra ad: a profile the matchmaker fails for a request
    (compared on those requests only), and another model's record — offered
    as a semantic description it is refused at the gate, and stored under its
    own model it shares the slot space and is never a semantic candidate."""
    ontology, gen, profiles, requests = _case(seed)
    ads = [_ad(i, profile) for i, profile in enumerate(profiles)]
    baseline = _loaded(ontology, ads)
    extra = gen.random_profile(STORE_SIZE)
    missed = [r for r in requests
              if not baseline.linear_model.matchmaker.match(extra, r).matched]
    assert missed
    with_extra = _loaded(ontology, ads[:STORE_SIZE // 2] + [_ad(STORE_SIZE, extra)]
                         + ads[STORE_SIZE // 2:])
    assert _rankings(with_extra, missed) == _rankings(baseline, missed)

    foreign = _loaded(ontology, [])
    for i, ad in enumerate(ads):
        foreign.put(ad)
        model = (UriModel(), TemplateModel())[i % 2]
        description = model.describe(ad.description, ad.endpoint)
        for evaluator in (foreign.indexed, foreign.linear):
            assert evaluator.models.for_description("semantic", description) is None
        foreign.put(replace(_ad(STORE_SIZE + 1 + i, ad.description),
                            model_id=model.model_id, description=description))
    assert foreign.indexed_model.malformed_payloads == STORE_SIZE
    assert _rankings(foreign, requests) == _rankings(baseline, requests)


def _chain(seed: int):
    """A settled four-LAN battlefield chain (flooding, four services a LAN),
    its client at one end, and a request per service phrased one step more
    generally, uncapped in effect (16 ads in all)."""
    built = build_scenario(ScenarioSpec(lan_names=("lan-0", "lan-1", "lan-2", "lan-3"),
                                        federation="chain", seed=seed),
                           config=DiscoveryConfig())
    built.system.run(until=SETTLE_AT)
    requests = [built.generator.request_for(profile, generalize=1, max_results=100)
                for profile in built.profiles]
    return built.system, built.system.clients[0], requests


def _answer(system, client, request, **kw) -> list:
    call = system.discover(client, request, **kw)
    assert call.completed and not call.timed_out
    return [(h.advertisement.ad_id, h.degree, h.score) for h in call.hits]


FEDERATION = settings(max_examples=6, deadline=None)


@FEDERATION
@given(seed=SEEDS)
def test_a_longer_ttl_loses_no_hit(seed):
    system, client, requests = _chain(seed)
    grew = 0
    for request in requests:
        answers = [{row[0] for row in _answer(system, client, request, ttl=ttl)}
                   for ttl in range(4)]
        for shorter, longer in zip(answers, answers[1:]):
            assert shorter <= longer, request
        grew += answers[0] < answers[-1]
    assert grew  # the far LANs hold hits the near one lacks


@FEDERATION
@given(seed=SEEDS)
def test_a_smaller_max_results_keeps_the_prefix(seed):
    system, client, requests = _chain(seed)
    for request in requests:
        full = _answer(system, client, request)
        for k in (1, 2, 3, 5):
            assert _answer(system, client, replace(request, max_results=k)) == full[:k]
