"""Property-style correctness battery for the sub-linear query path.

The optimized pipeline — posting-list intersection over closure bitsets,
QoS pre-filtering, and bounded top-k early termination — carries one hard
contract: **bit-identical results to the exhaustive linear scan**. These
tests drive both paths over many seeded random ontologies and stores and
assert, for every request shape the registries serve:

* the intersected candidate set is a superset of the advertisements the
  linear scan accepts (no false negatives, ever);
* capped (top-k early-terminated) rankings equal the exhaustive ranking's
  prefix bit for bit — including QoS-constrained requests, keyword-only
  fallback requests, and requests issued across mid-run ontology growth.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.descriptions.base import ModelRegistry
from repro.descriptions.semantic import SemanticModel
from repro.descriptions.template import TemplateModel
from repro.descriptions.uri import UriModel
from repro.registry.advertisements import Advertisement
from repro.registry import index as index_module
from repro.registry import matching
from repro.registry.index import ConceptIndexer, SemanticConceptIndex
from repro.registry.matching import QueryEvaluator, QueryHit
from repro.registry.store import AdvertisementStore
from repro.semantics.generator import OntologyGenerator, ProfileGenerator
from repro.semantics.ontology import THING
from repro.semantics.profiles import QoSConstraint, ServiceProfile, ServiceRequest
from repro.semantics.reasoner import Reasoner

N_SEEDS = 6
STORE_SIZE = 80


def _ad(index: int, profile: ServiceProfile, version: int = 1) -> Advertisement:
    return Advertisement(
        ad_id=f"ad-{index:06d}",
        service_node=f"svc-node-{index}",
        service_name=profile.service_name,
        endpoint=f"svc://{profile.service_name}",
        model_id="semantic",
        description=profile,
        version=version,
    )


def _request_corpus(gen: ProfileGenerator, profiles, rng: random.Random):
    """Request shapes covering every pipeline branch."""
    anchor = rng.choice(profiles)
    yield gen.request_for(anchor, generalize=0, max_results=3)
    yield gen.request_for(anchor, generalize=1, max_results=5)
    yield gen.request_for(rng.choice(profiles), generalize=2, max_results=1)
    yield gen.random_request(max_results=4)
    # QoS-constrained: some profiles carry the attribute, some do not.
    yield ServiceRequest.build(
        rng.choice(gen.category_pool),
        outputs=[rng.choice(gen.data_pool)],
        qos={"latency_ms": (None, 200.0)},
        max_results=3,
    )
    yield ServiceRequest.build(
        rng.choice(gen.category_pool),
        qos={"confidence": (0.8, None), "coverage_km": (None, 50.0)},
        max_results=5,
    )
    # Keyword-only: the index cannot prune, linear fallback must engage.
    yield ServiceRequest.build(keywords=["service"], max_results=3)
    # Degenerate concept shapes.
    yield ServiceRequest.build(THING, max_results=5)
    yield ServiceRequest.build("gen:NoSuchConcept", outputs=["gen:AlsoMissing"],
                               max_results=2)
    yield ServiceRequest.build(outputs=[rng.choice(gen.data_pool),
                                        rng.choice(gen.data_pool)], max_results=5)


def _rows(hits):
    return [(h.advertisement.ad_id, h.advertisement.version, h.degree, h.score)
            for h in hits]


class _TwinPaths:
    """Indexed and linear evaluators over identical store content."""

    def __init__(self, ontology) -> None:
        self.indexed_store = AdvertisementStore()
        self.linear_store = AdvertisementStore()
        self.indexed_model = SemanticModel(ontology)
        self.linear_model = SemanticModel(ontology)
        self.indexed = QueryEvaluator(
            self.indexed_store, ModelRegistry([self.indexed_model])
        )
        self.linear = QueryEvaluator(
            self.linear_store, ModelRegistry([self.linear_model]), use_indexes=False
        )

    def put(self, ad: Advertisement) -> None:
        self.indexed_store.put(ad)
        self.linear_store.put(ad)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_candidate_superset_and_topk_bit_identical(seed):
    ontology = OntologyGenerator(seed).random_ontology()
    gen = ProfileGenerator(ontology, seed=seed)
    rng = random.Random(1000 + seed)
    paths = _TwinPaths(ontology)
    profiles = gen.profiles(STORE_SIZE)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    index = paths.indexed_store.index_for("semantic")

    for request in _request_corpus(gen, profiles, rng):
        # Superset contract: candidates cover every linear acceptance.
        accepted = {
            f"ad-{i:06d}"
            for i, p in enumerate(profiles)
            if paths.linear_model.matchmaker.match(p, request).matched
        }
        candidates = index.candidate_ids(request)
        if candidates is not None:
            assert accepted <= candidates, (seed, request)
        # Ranked groups agree with the flat candidate set and carry
        # strictly descending upper bounds.
        buckets = index.candidate_buckets(request)
        if candidates is None:
            assert buckets is None
        else:
            seen: list[int] = []
            grouped: set[str] = set()
            for upper_bound, ads in buckets:
                seen.append(upper_bound)
                grouped |= {ad.ad_id for ad in ads}
            assert seen == sorted(seen, reverse=True)
            assert grouped == candidates
        # Bit-identical capped ranking, early termination included.
        capped = paths.indexed.evaluate("semantic", request,
                                        max_results=request.max_results)
        exhaustive = paths.linear.evaluate("semantic", request, max_results=None)
        assert _rows(capped) == _rows(exhaustive)[: request.max_results], \
            (seed, request)


@pytest.mark.parametrize("seed", range(3))
def test_topk_identical_under_churn(seed):
    """Removals and version-bump republishes between queries."""
    ontology = OntologyGenerator(30 + seed).random_ontology()
    gen = ProfileGenerator(ontology, seed=30 + seed)
    rng = random.Random(2000 + seed)
    paths = _TwinPaths(ontology)
    profiles = gen.profiles(STORE_SIZE)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    for round_no in range(4):
        for i in rng.sample(range(STORE_SIZE), 10):
            paths.indexed_store.discard(f"ad-{i:06d}")
            paths.linear_store.discard(f"ad-{i:06d}")
        for i in rng.sample(range(STORE_SIZE), 8):
            replacement = gen.random_profile(10_000 * (round_no + 1) + i)
            paths.put(_ad(i, replacement, version=round_no + 2))
        for request in _request_corpus(gen, profiles, rng):
            capped = paths.indexed.evaluate("semantic", request,
                                            max_results=request.max_results)
            exhaustive = paths.linear.evaluate("semantic", request,
                                               max_results=None)
            assert _rows(capped) == _rows(exhaustive)[: request.max_results]


def test_topk_identical_across_mid_run_ontology_growth():
    """Growing the ontology between queries must refresh every cache."""
    ontology = OntologyGenerator(77).random_ontology()
    gen = ProfileGenerator(ontology, seed=77)
    rng = random.Random(77)
    paths = _TwinPaths(ontology)
    profiles = gen.profiles(STORE_SIZE)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    for request in _request_corpus(gen, profiles, rng):
        paths.indexed.evaluate("semantic", request, max_results=request.max_results)
    # Grow: fresh classes under an advertised output and category, then
    # publish ads phrased in the new vocabulary.
    parent_out = profiles[0].outputs[0]
    ontology.add_class("gen:DataGrown", parents=[parent_out])
    ontology.add_class("gen:ServiceGrown", parents=[profiles[0].category])
    grown = ServiceProfile.build("svc-grown", "gen:ServiceGrown",
                                 outputs=["gen:DataGrown"])
    paths.put(_ad(5000, grown))
    probe = ServiceRequest.build(profiles[0].category, outputs=[parent_out],
                                 max_results=10)
    index = paths.indexed_store.index_for("semantic")
    candidates = index.candidate_ids(probe)
    assert candidates is not None and "ad-005000" in candidates
    full_indexed = paths.indexed.evaluate("semantic", probe, max_results=None)
    exhaustive = paths.linear.evaluate("semantic", probe, max_results=None)
    assert _rows(full_indexed) == _rows(exhaustive)
    assert any(h.advertisement.ad_id == "ad-005000" for h in full_indexed)
    capped = paths.indexed.evaluate("semantic", probe, max_results=10)
    assert _rows(capped) == _rows(exhaustive)[:10]
    for request in _request_corpus(gen, profiles, rng):
        capped = paths.indexed.evaluate("semantic", request,
                                        max_results=request.max_results)
        exhaustive = paths.linear.evaluate("semantic", request, max_results=None)
        assert _rows(capped) == _rows(exhaustive)[: request.max_results]


def test_qos_prefilter_rejects_before_scoring():
    """Constraint-failing ads are never semantically scored, hits unchanged."""
    ontology = OntologyGenerator(4).random_ontology()
    gen = ProfileGenerator(ontology, seed=4)
    paths = _TwinPaths(ontology)
    profiles = gen.profiles(40)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    # A constraint no generated profile can satisfy (latency floor above
    # the generator's range) plus one many satisfy.
    impossible = ServiceRequest.build(
        gen.category_pool[0], qos={"latency_ms": (10_000.0, None)}, max_results=5
    )
    evals_before = paths.indexed_model.matchmaker.evaluations
    hits = paths.indexed.evaluate("semantic", impossible, max_results=5)
    assert hits == []
    assert paths.indexed.prefiltered > 0
    assert paths.indexed_model.matchmaker.evaluations == evals_before
    linear_hits = paths.linear.evaluate("semantic", impossible, max_results=5)
    assert linear_hits == []


def test_early_termination_counter_fires():
    """Selective anchored requests must settle before scoring everything."""
    ontology = OntologyGenerator(12).random_ontology()
    gen = ProfileGenerator(ontology, seed=12)
    paths = _TwinPaths(ontology)
    profiles = gen.profiles(400)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    terminated = 0
    for i in range(20):
        request = gen.request_for(profiles[(i * 17) % 400], generalize=1,
                                  max_results=3)
        before = paths.indexed.early_terminations
        capped = paths.indexed.evaluate("semantic", request, max_results=3)
        exhaustive = paths.linear.evaluate("semantic", request, max_results=None)
        assert _rows(capped) == _rows(exhaustive)[:3]
        terminated += paths.indexed.early_terminations - before
    assert terminated > 0
    # Termination must actually save work relative to the linear scan.
    assert paths.indexed.descriptions_evaluated \
        < paths.linear.descriptions_evaluated


# -- bound before body: the registry expands only the candidates it scores ----


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_every_id_the_index_expands_is_scored(seed):
    """Ranked queries: ``index.expanded`` moves exactly with the evaluator's
    scored count — the group that ends a query is never expanded — and the
    hits still equal the linear oracle, also after slot-recycling churn."""
    ontology = OntologyGenerator(60 + seed).random_ontology()
    gen = ProfileGenerator(ontology, seed=60 + seed)
    rng = random.Random(3000 + seed)
    paths = _TwinPaths(ontology)
    profiles = gen.profiles(STORE_SIZE * 3)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    index = paths.indexed_store.index_for("semantic")
    skipped_a_group = 0
    for round_no in range(3):
        for request in _request_corpus(gen, profiles, rng):
            expanded, scored = index.expanded, paths.indexed.descriptions_evaluated
            fallbacks = index.fallbacks
            terminated = paths.indexed.early_terminations
            capped = paths.indexed.evaluate("semantic", request,
                                            max_results=request.max_results)
            exhaustive = paths.linear.evaluate("semantic", request, max_results=None)
            assert _rows(capped) == _rows(exhaustive)[: request.max_results]
            if index.fallbacks > fallbacks:  # keyword-only: linear scan, no bitsets
                assert index.expanded == expanded
                continue
            taken = index.expanded - expanded
            assert taken == paths.indexed.descriptions_evaluated - scored, \
                (seed, request)
            if paths.indexed.early_terminations > terminated:
                assert taken < len(index.candidate_ids(request))
                skipped_a_group += 1
        for i in rng.sample(range(STORE_SIZE * 3), 30):
            paths.indexed_store.discard(f"ad-{i:06d}")
            paths.linear_store.discard(f"ad-{i:06d}")
        for i in rng.sample(range(STORE_SIZE * 3), 20):
            paths.put(_ad(i, gen.random_profile(20_000 * (round_no + 1) + i),
                          version=round_no + 2))
    assert skipped_a_group > 0


def _request_with_all_three_groups(gen, profiles, index):
    for anchor in profiles:
        request = gen.request_for(anchor, generalize=1, max_results=2)
        groups: dict[int, list[str]] = {}
        for (degree, _score), ads in index.candidate_buckets(request):
            groups.setdefault(degree, []).extend(ad.ad_id for ad in ads)
        if sorted(groups) == [1, 2, 3]:
            return request, groups
    raise AssertionError("no request produced EXACT, PLUGIN and SUBSUMES groups")


@pytest.mark.parametrize("stale_bound", (3, 2, 1))
def test_all_stale_group_changes_neither_hits_nor_termination_count(stale_bound):
    """Every advertisement of one degree's group leaves the store. The
    store tells the index in the same call, so no stale id can be handed
    out: the emptied degree yields no group at all, and the groups around
    it stop the query exactly as before."""
    ontology = OntologyGenerator(5).random_ontology()
    gen = ProfileGenerator(ontology, seed=5)
    paths = _TwinPaths(ontology)
    profiles = gen.profiles(STORE_SIZE * 3)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    index = paths.indexed_store.index_for("semantic")
    request, groups = _request_with_all_three_groups(gen, profiles, index)
    for ad_id in groups[stale_bound]:
        paths.indexed_store.discard(ad_id)
        paths.linear_store.discard(ad_id)
    degrees = [degree for (degree, _), _ in index.candidate_buckets(request)]
    assert stale_bound not in degrees and len(set(degrees)) == 2
    for max_results in (1, 2, 5, 1000):
        before = paths.indexed.early_terminations
        capped = paths.indexed.evaluate("semantic", request, max_results=max_results)
        exhaustive = paths.linear.evaluate("semantic", request, max_results=None)
        assert _rows(capped) == _rows(exhaustive)[:max_results]
        assert paths.indexed.early_terminations - before <= 1
    assert paths.indexed.early_terminations > 0


def test_list_groups_from_a_third_party_indexer_still_work():
    """The group protocol asks for an iterable; a plain list is one."""

    class ListIndexer(ConceptIndexer):
        model_id = "semantic"

        def __init__(self, model):
            self.inner = SemanticConceptIndex(model)

        def add(self, slot, ad):
            self.inner.add(slot, ad)

        def discard(self, slot, ad):
            self.inner.discard(slot, ad)

        def reset(self, records):
            self.inner.reset(records)

        def candidate_ids(self, query):
            return self.inner.candidate_ids(query)

        def candidate_buckets(self, query):
            buckets = self.inner.candidate_buckets(query)
            if buckets is None:
                return None
            return iter([(bound, list(ads)) for bound, ads in buckets])

    ontology = OntologyGenerator(6).random_ontology()
    gen = ProfileGenerator(ontology, seed=6)
    rng = random.Random(6)
    paths = _TwinPaths(ontology)
    paths.indexed_store.attach_index(ListIndexer(paths.indexed_model))
    profiles = gen.profiles(STORE_SIZE)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    for request in _request_corpus(gen, profiles, rng):
        capped = paths.indexed.evaluate("semantic", request,
                                        max_results=request.max_results)
        exhaustive = paths.linear.evaluate("semantic", request, max_results=None)
        assert _rows(capped) == _rows(exhaustive)[: request.max_results]
    assert paths.indexed.early_terminations > 0


# -- (degree, score) bounds: every candidate under its group's bound ----------


def _with_inputs(request: ServiceRequest, gen: ProfileGenerator, rng) -> ServiceRequest:
    return dataclasses.replace(request, provided_inputs=tuple(rng.sample(gen.data_pool, 2)))


@pytest.mark.parametrize("split_above", (0, index_module.SPLIT_ABOVE))
@pytest.mark.parametrize("seed", range(4))
def test_every_candidate_scores_under_its_group_bound(seed, split_above, monkeypatch):
    """Over the request corpus (QoS, THING, out-of-ontology, keyword-only)
    plus requests carrying inputs, with degrees split by score always and at
    the default size: bounds strictly descend, ids ascend inside a group,
    groups are disjoint and make up the candidate set, and every
    candidate's verdict ``(degree, score)`` is at most its group's bound.
    With k = 1 a split degree refines until each group is resolved or holds
    one candidate; with no cap at all, every group is resolved, and every
    match in it scores its bound exactly."""
    monkeypatch.setattr(index_module, "SPLIT_ABOVE", split_above)
    ontology = OntologyGenerator(90 + seed).random_ontology()
    gen = ProfileGenerator(ontology, seed=90 + seed)
    rng = random.Random(5000 + seed)
    paths = _TwinPaths(ontology)
    profiles = gen.profiles(STORE_SIZE * 3)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    index = paths.indexed_store.index_for("semantic")
    requests = list(_request_corpus(gen, profiles, rng))
    requests += [_with_inputs(request, gen, rng) for request in requests[:5]]
    requests += [dataclasses.replace(request, max_results=cap)
                 for request in requests[:6] for cap in (1, None)]
    split = exact = 0
    for request in requests:
        candidates = index.candidate_ids(request)
        buckets = index.candidate_buckets(request)
        if candidates is None:
            assert buckets is None
            continue
        bounds: list[tuple[int, float]] = []
        grouped: set[str] = set()
        resolved = request.max_results is None
        for bound, ads in buckets:
            ad_ids = [ad.ad_id for ad in ads]
            assert ad_ids == sorted(ad_ids), (seed, request, bound)
            assert grouped.isdisjoint(ad_ids), (seed, request, bound)
            grouped.update(ad_ids)
            bounds.append(bound)
            for ad_id in ad_ids:
                description = paths.linear_store.get(ad_id).description
                verdict = paths.linear_model.evaluate(description, request)
                assert (verdict.degree, verdict.score) <= bound, (seed, request, ad_id)
                if resolved and verdict.matched:
                    assert verdict.score == bound[1], (seed, request, ad_id, bound)
                    exact += 1
        assert all(a > b for a, b in zip(bounds, bounds[1:])), (seed, request, bounds)
        assert grouped == candidates
        split += len(bounds) > len({degree for degree, _ in bounds})
    assert split > 0  # some degree was split by score
    assert exact > 0  # and some match scored a resolved bound


@pytest.mark.parametrize("requested, partner, field", [
    ("gen:Service6", "gen:Service0", "category"),
    ("gen:Data58", "gen:Data26", "output"),
])
def test_a_partner_at_similarity_one_shares_the_concepts_group(requested, partner, field):
    """The reasoner clamps multi-parent similarity ratios, so a concept's
    most similar other concept can score exactly 1.0: here a direct parent,
    whose advertisers tie with the concept's own at ``(EXACT, 1.0)``. Both
    must hand out as one group in ``ad_id`` order — as two groups with the
    same bound, the stop rule would end the query inside the first and
    return a wrong top k."""
    ontology = OntologyGenerator(42).random_ontology()
    assert Reasoner(ontology).similarity(requested, partner) == 1.0
    assert partner in ontology.parents(requested)
    k = 3

    def profile(i: int, concept: str) -> ServiceProfile:
        if field == "category":
            return ServiceProfile.build(f"svc-{i}", concept, outputs=["gen:Data0"])
        return ServiceProfile.build(f"svc-{i}", "gen:Service1", outputs=[concept])

    paths = _TwinPaths(ontology)
    for i in range(1, 1 + k):  # the partner's advertisers come first by id
        paths.put(_ad(i, profile(i, partner)))
    other_parent = next(p for p in sorted(ontology.parents(requested)) if p != partner)
    for i in range(50, 50 + k):  # EXACT too, at a lower similarity
        paths.put(_ad(i, profile(i, other_parent)))
    for i in range(100, 100 + (index_module.SPLIT_ABOVE + 1) * k):
        paths.put(_ad(i, profile(i, requested)))
    if field == "category":
        request = ServiceRequest.build(requested, max_results=k)
    else:
        request = ServiceRequest.build(outputs=[requested], max_results=k)
    capped = paths.indexed.evaluate("semantic", request, max_results=k)
    exhaustive = paths.linear.evaluate("semantic", request, max_results=None)
    assert _rows(capped) == _rows(exhaustive)[:k]
    assert [h.advertisement.ad_id for h in capped] == [f"ad-{i:06d}" for i in range(1, 1 + k)]
    index = paths.indexed_store.index_for("semantic")
    groups = [(bound, [ad.ad_id for ad in ads])
              for bound, ads in index.candidate_buckets(request)]
    assert groups[0][0] == (3, 1.0) and len(groups) > 1  # the degree was split
    assert {"ad-000001", "ad-000100"} <= set(groups[0][1])


@functools.cache
def _twin_pairs(seed: int) -> tuple[list[tuple[str, str, str, str]], list[str], list[str]]:
    """For one generated ontology: ``(category, its parent, output, its
    parent)`` wherever the two parents are equally similar to their
    children, and the category and data pools."""
    ontology = OntologyGenerator(seed).random_ontology()
    gen = ProfileGenerator(ontology, seed=seed)
    reasoner = Reasoner(ontology)
    parent = {concept: min(ontology.parents(concept))
              for concept in gen.category_pool + gen.data_pool}
    pairs = [(c, parent[c], o, parent[o]) for c in gen.category_pool for o in gen.data_pool
             if parent[c] != THING != parent[o]
             and reasoner.similarity(c, parent[c]) == reasoner.similarity(o, parent[o])]
    return pairs, gen.category_pool, gen.data_pool


@settings(max_examples=40, deadline=None)
@given(seed=st.sampled_from((0, 1, 2, 42)), copies=st.integers(8, 40),
       k=st.integers(1, 8), data=st.data())
def test_a_store_full_of_ties_answers_like_the_linear_scan(seed, copies, k, data):
    """Few concepts, many advertisements per concept: most candidates share
    their ``(degree, score)`` with dozens of others, in slots that are not in
    id order. The request's category and output each have a parent exactly
    as similar to it as the other's, so advertising one parent and the
    other requested concept ties across two refinement paths, and only a
    few advertisements, if any, rank above those ties. The capped
    indexed top k equals the linear scan's prefix, bounds strictly descend,
    and the evaluator scores exactly the candidates that could still enter
    the top k, walking the groups in order: it stops at the first whose
    best rank key — its group's bound, then its id — the k-th best key
    among those scored before it beats, even inside a group."""
    pairs, category_pool, data_pool = _twin_pairs(seed)
    category, category_parent, output, output_parent = data.draw(st.sampled_from(pairs))
    rng = random.Random(copies)
    shapes = [(category, [output_parent]), (category_parent, [output]),
              (category_parent, [output_parent])]
    shapes += [(c, [o]) for c in rng.sample(category_pool, 2) for o in rng.sample(data_pool, 2)]
    shapes.append((category, [output_parent, rng.choice(data_pool)]))
    stored = shapes * copies + [(category, [output])] * data.draw(st.integers(0, 2))
    ids = list(range(len(stored)))
    rng.shuffle(ids)
    ontology = OntologyGenerator(seed).random_ontology()
    paths = _TwinPaths(ontology)
    for n, (advertised_category, advertised) in enumerate(stored):
        paths.put(_ad(ids[n], ServiceProfile.build(
            f"svc-{n % len(shapes)}", advertised_category, outputs=advertised)))
    request = ServiceRequest.build(category, outputs=[output], max_results=k)
    exhaustive = paths.linear.evaluate("semantic", request, max_results=None)
    before = paths.indexed.descriptions_evaluated
    capped = paths.indexed.evaluate("semantic", request, max_results=k)
    scored = paths.indexed.descriptions_evaluated - before
    assert _rows(capped) == _rows(exhaustive)[:k]

    index = paths.indexed_store.index_for("semantic")
    oracle = {h.advertisement.ad_id: (-h.degree, -h.score, h.advertisement.ad_id)
              for h in exhaustive}
    taken: list[tuple] = []
    could_enter = 0
    bounds = []
    for (degree, score), ads in index.candidate_buckets(request):
        bounds.append((degree, score))
        for ad in ads:
            if len(taken) >= k and sorted(taken)[k - 1] < (-degree, -score, ad.ad_id):
                break
            could_enter += 1
            if ad.ad_id in oracle:
                taken.append(oracle[ad.ad_id])
        else:
            continue
        break
    assert all(a > b for a, b in zip(bounds, bounds[1:])), bounds
    assert scored == could_enter


# -- malformed payloads: a bad record is not a query of death -----------------


@pytest.mark.parametrize("seed", range(3))
def test_malformed_advertisement_changes_no_answer(seed):
    """Another model's record offered as a semantic description is refused at
    the model gate, counted once per offer, and never stored; other models'
    advertisements that *are* stored share the slot space and change no
    semantic answer on either path, capped and uncapped."""
    ontology = OntologyGenerator(80 + seed).random_ontology()
    gen = ProfileGenerator(ontology, seed=80 + seed)
    clean, dirty = _TwinPaths(ontology), _TwinPaths(ontology)
    profiles = gen.profiles(STORE_SIZE)
    others = [(model.model_id, model.describe(profile, "svc://other"))
              for model in (UriModel(), TemplateModel()) for profile in profiles[:5]]
    for i, profile in enumerate(profiles):
        clean.put(_ad(i, profile))
        dirty.put(_ad(i, profile))
        if i < len(others):  # interleaved slots
            model_id, description = others[i]
            dirty.put(dataclasses.replace(_ad(STORE_SIZE + i, profile), model_id=model_id,
                                          description=description))
    for evaluator in (dirty.indexed, dirty.linear):
        for _, description in others:
            assert evaluator.models.for_description("semantic", description) is None
    requests = list(_request_corpus(gen, profiles, random.Random(seed)))
    for request in requests:
        for cap in (request.max_results, None):
            expected = _rows(clean.linear.evaluate("semantic", request, max_results=cap))
            assert _rows(dirty.indexed.evaluate("semantic", request, max_results=cap)) \
                == expected
            assert _rows(dirty.linear.evaluate("semantic", request, max_results=cap)) \
                == expected
    assert clean.indexed_model.malformed_payloads == 0
    assert clean.linear_model.malformed_payloads == 0
    assert dirty.linear_model.malformed_payloads == len(others)
    assert dirty.indexed_model.malformed_payloads == len(others)
    assert dirty.indexed_store.audit() == []


def test_malformed_query_matches_nothing():
    """A query that is not a ``ServiceRequest`` is refused once per query at
    the gate, whatever the store holds: no candidate is scored."""
    ontology = OntologyGenerator(5).random_ontology()
    gen = ProfileGenerator(ontology, seed=5)
    paths = _TwinPaths(ontology)
    profiles = gen.profiles(10)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    uri_query = UriModel().query_from(gen.request_for(profiles[0]))
    for evaluator, model in ((paths.indexed, paths.indexed_model),
                             (paths.linear, paths.linear_model)):
        assert evaluator.evaluate("semantic", uri_query, max_results=3) == []
        assert evaluator.evaluate("semantic", "not a request", max_results=3) == []
        assert evaluator.evaluate("semantic", {"category": "x"}) == []
        assert model.malformed_payloads == 3
        assert evaluator.descriptions_evaluated == 0
        assert model.matchmaker.evaluations == 0


# -- one plan per query, the same reasoning as before -------------------------


def _fixed_10k_query_set():
    ontology = OntologyGenerator(42).random_ontology()
    gen = ProfileGenerator(ontology, seed=42)
    paths = _TwinPaths(ontology)
    profiles = gen.profiles(10_000)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    requests = [gen.request_for(profiles[(i * 37) % 10_000], generalize=1, max_results=5)
                for i in range(40)]
    requests += list(_request_corpus(gen, profiles, random.Random(42)))
    return paths, requests


def test_plans_and_reasoning_counts_on_a_fixed_10k_query_set():
    """One request plan per scoring query on either path, and exactly the matches
    and subsumption checks spent on this query set: the pair tables reason
    about a pair when, and only when, the two memo dicts they replaced did
    (linear values recorded before the plans existed; the indexed ones
    re-recorded when the top-k stop moved inside score-bounded groups,
    from 2,126 checks and 21,702 matches, and when score bounds were
    refined over every similarity level, from 1,616 and 10,975)."""
    paths, requests = _fixed_10k_query_set()

    def run(evaluator, model, request, cap):
        matchmaker = model.matchmaker
        plans, scored = matchmaker.plans_built, matchmaker.evaluations
        evaluator.evaluate("semantic", request, max_results=cap)
        assert matchmaker.plans_built - plans == (matchmaker.evaluations > scored)

    indexed, linear = paths.indexed_model, paths.linear_model
    for request in requests:
        run(paths.indexed, indexed, request, request.max_results)
    for request in requests[::5]:
        run(paths.linear, linear, request, None)
    assert (indexed.reasoner.subsumption_checks, indexed.matchmaker.evaluations) \
        == (1341, 10789)
    assert (linear.reasoner.subsumption_checks, linear.matchmaker.evaluations) \
        == (2067, 91123)


# -- ranking oracle: rank keys against a hit per match -------------------------


def _constrained(request: ServiceRequest) -> ServiceRequest:
    return dataclasses.replace(
        request, qos_constraints=(QoSConstraint("latency_ms", maximum=250.0),))


def _reference_ranking(model: SemanticModel, ads, query, max_results):
    """The scoring loop as it stood before rank keys, verbatim: a
    ``QueryHit`` per match, ordered by ``QueryHit.sort_key``."""
    hits = []
    for ad in ads:
        description = ad.description
        if not model.prefilter(description, query):
            continue
        verdict = model.evaluate(description, query)
        if verdict.matched:
            hits.append(QueryHit(ad, verdict.degree, verdict.score))
    return sorted(hits, key=QueryHit.sort_key)[:max_results]


@pytest.mark.parametrize("size", (50, 2_000))
@pytest.mark.parametrize("seed", range(8))
def test_ranking_equals_the_hit_per_match_reference(seed, size):
    """Same records, same order, same degree and score objects' values —
    capped and uncapped, indexed and linear — on stores where a fifth of
    the records are copies of seven profiles under other ids (ties on
    degree and score, broken by id) and slot order is not id order."""
    ontology = OntologyGenerator(seed).random_ontology()
    gen = ProfileGenerator(ontology, seed=seed)
    rng = random.Random(4000 + seed)
    paths = _TwinPaths(ontology)
    distinct = gen.profiles(size * 4 // 5)
    profiles = distinct + [distinct[i % 7] for i in range(size - len(distinct))]
    ids = list(range(size))
    rng.shuffle(ids)
    for i, profile in zip(ids, profiles):
        paths.put(_ad(i, profile))
    stored = paths.linear_store.of_model("semantic")
    reference_model = SemanticModel(ontology)

    requests = list(_request_corpus(gen, distinct, rng))
    requests += [gen.request_for(distinct[i], generalize=i % 2) for i in range(7)]
    requests += [_constrained(request) for request in requests[::3]]
    tied = 0
    for request in requests:
        full = _reference_ranking(reference_model, stored, request, None)
        tied += any(a.degree == b.degree and a.score == b.score
                    for a, b in zip(full, full[1:]))
        for cap in (1, 5, None):
            for evaluator in (paths.indexed, paths.linear):
                hits = evaluator.evaluate("semantic", request, max_results=cap)
                assert [(h.advertisement.ad_id, h.degree, h.score) for h in hits] \
                    == [(h.advertisement.ad_id, h.degree, h.score) for h in full[:cap]], \
                    (seed, request, cap)
                assert all(h.advertisement is e.advertisement for h, e in zip(hits, full))
                assert all(type(h.degree) is int and type(h.score) is float for h in hits)
    assert tied > 0


# -- a hit only for what is returned, a pre-filter only when it can reject ----


def test_allocation_and_model_call_counts_on_the_fixed_10k_query_set(monkeypatch):
    """Machine-independent gates on what one ``evaluate`` costs: it builds a
    ``QueryHit`` per advertisement it returns (not per match), calls the
    model's ``evaluate`` once per candidate the pre-filter let through, and
    calls ``prefilter`` per candidate only for a request with QoS
    constraints — where the hits are the ones the per-candidate loop
    produced (literals recorded before rank keys; the indexed rejected count
    re-recorded, from 19,799, when the top-k stop moved inside
    score-bounded groups, and from 7,002 when score bounds were refined
    over every similarity level)."""
    paths, requests = _fixed_10k_query_set()
    unconstrained = [r for r in requests if not r.qos_constraints]
    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    class CountedHit(QueryHit):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            calls["hits"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(matching, "QueryHit", CountedHit)
    for method in ("prefilter", "evaluate"):
        monkeypatch.setattr(SemanticModel, method,
                            counted(method, SemanticModel.__dict__[method]))

    def run(evaluator, request):
        before = Counter(calls)
        scored, rejected = evaluator.descriptions_evaluated, evaluator.prefiltered
        hits = evaluator.evaluate("semantic", request, max_results=request.max_results)
        spent = calls - before
        scored = evaluator.descriptions_evaluated - scored
        assert spent["hits"] == len(hits) <= request.max_results
        assert spent["evaluate"] == scored - (evaluator.prefiltered - rejected)
        assert spent["prefilter"] == (scored if request.qos_constraints else 0)
        return _rows(hits)

    for evaluator, subset in ((paths.indexed, unconstrained),
                              (paths.linear, unconstrained[::5])):
        for request in subset:
            run(evaluator, request)
        assert evaluator.prefiltered == 0
    rows = [run(paths.indexed, _constrained(request)) for request in unconstrained]
    assert rows[::5] == [run(paths.linear, _constrained(request))
                         for request in unconstrained[::5]]
    assert (paths.indexed.prefiltered, paths.linear.prefiltered) == (6877, 62500)
    assert (sum(map(len, rows)), hashlib.sha256(repr(rows).encode()).hexdigest()[:16]) \
        == (226, "d0c0fa296093fd11")
