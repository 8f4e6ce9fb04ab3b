"""Indexed vs. linear query-path equivalence.

The inverted concept index is an optimization with a hard contract: the
indexed path must return *exactly* the hits the linear scan returns, in
the same order, under every store/ontology mutation. These property-style
tests drive both paths over randomized ontologies and stores from
``semantics/generator.py`` and assert bit-identical results — including
after removals (lease expiry), version-bumping republishes, ontology
growth, and late ontology attachment.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.descriptions.base import ModelRegistry
from repro.descriptions.semantic import SemanticModel
from repro.descriptions.uri import UriDescription
from repro.registry.advertisements import Advertisement
from repro.registry.index import SemanticConceptIndex
from repro.registry.matching import QueryEvaluator
from repro.registry.store import AdvertisementStore
from repro.semantics.generator import OntologyGenerator, ProfileGenerator
from repro.semantics.ontology import THING, Ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest


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


class _Paths:
    """An indexed and a linear evaluator over identical store content."""

    def __init__(self, ontology: Ontology) -> None:
        self.ontology = ontology
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

    def discard(self, ad_id: str) -> None:
        self.indexed_store.discard(ad_id)
        self.linear_store.discard(ad_id)

    def assert_equivalent(self, request: ServiceRequest, max_results=None) -> list:
        indexed_hits = self.indexed.evaluate("semantic", request, max_results=max_results)
        linear_hits = self.linear.evaluate("semantic", request, max_results=max_results)
        as_rows = lambda hits: [
            (h.advertisement.ad_id, h.advertisement.version, h.degree, h.score)
            for h in hits
        ]
        assert as_rows(indexed_hits) == as_rows(linear_hits)
        return indexed_hits


def _requests(gen: ProfileGenerator, profiles, rng: random.Random):
    """A mixed bag of request shapes exercising every index code path."""
    anchor = rng.choice(profiles)
    yield gen.request_for(anchor, generalize=0)
    yield gen.request_for(anchor, generalize=1, max_results=3)
    yield gen.request_for(rng.choice(profiles), generalize=2)
    yield gen.random_request(max_results=5)
    # category-only / outputs-only / THING / out-of-ontology / keyword-only
    yield ServiceRequest.build(rng.choice(gen.category_pool))
    yield ServiceRequest.build(outputs=[rng.choice(gen.data_pool)])
    yield ServiceRequest.build(THING)
    yield ServiceRequest.build(category=THING, outputs=[rng.choice(gen.data_pool)])
    yield ServiceRequest.build("gen:NotAConcept", outputs=["gen:AlsoMissing"])
    yield ServiceRequest.build(keywords=["service"])
    yield ServiceRequest.build(
        rng.choice(gen.category_pool),
        outputs=[rng.choice(gen.data_pool), rng.choice(gen.data_pool)],
        qos={"latency_ms": (None, 250.0)},
        max_results=2,
    )


@pytest.mark.parametrize("seed", range(5))
def test_indexed_equals_linear_on_random_stores(seed):
    ontology = OntologyGenerator(seed).random_ontology()
    gen = ProfileGenerator(ontology, seed=seed)
    rng = random.Random(seed)
    paths = _Paths(ontology)
    profiles = gen.profiles(60)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    for request in _requests(gen, profiles, rng):
        paths.assert_equivalent(request, max_results=request.max_results)


@pytest.mark.parametrize("seed", range(3))
def test_equivalence_survives_removal_and_republish(seed):
    ontology = OntologyGenerator(seed).random_ontology()
    gen = ProfileGenerator(ontology, seed=seed)
    rng = random.Random(100 + seed)
    paths = _Paths(ontology)
    profiles = gen.profiles(40)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    # Lease-expiry-style removals of a third of the store.
    for i in rng.sample(range(40), 13):
        paths.discard(f"ad-{i:06d}")
    # Republishes: newer versions with *different* descriptions.
    for i in rng.sample(range(40), 10):
        replacement = gen.random_profile(1000 + i)
        paths.put(_ad(i, replacement, version=2))
    for request in _requests(gen, profiles, rng):
        paths.assert_equivalent(request, max_results=request.max_results)


def test_equivalence_survives_ontology_version_bump():
    ontology = OntologyGenerator(7).random_ontology()
    gen = ProfileGenerator(ontology, seed=7)
    paths = _Paths(ontology)
    profiles = gen.profiles(30)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    request = gen.request_for(profiles[0], generalize=1)
    paths.assert_equivalent(request)
    index = paths.indexed_store.index_for("semantic")
    rebuilds_before = index.rebuilds
    # Grow the ontology mid-run: a new class under an advertised concept.
    parent = profiles[0].outputs[0]
    ontology.add_class("gen:DataFresh", parents=[parent])
    paths.put(_ad(999, ServiceProfile.build(
        "svc-fresh", profiles[0].category, outputs=["gen:DataFresh"])))
    fresh_request = ServiceRequest.build(outputs=[parent])
    hits = paths.assert_equivalent(fresh_request)
    assert any(h.advertisement.ad_id == "ad-000999" for h in hits)
    assert index.rebuilds == rebuilds_before + 1


def test_index_attaches_over_existing_content():
    """Bulk-loading an index over a pre-populated store must be exact."""
    ontology = OntologyGenerator(3).random_ontology()
    gen = ProfileGenerator(ontology, seed=3)
    store = AdvertisementStore()
    profiles = gen.profiles(25)
    for i, profile in enumerate(profiles):
        store.put(_ad(i, profile))
    model = SemanticModel(ontology)
    store.attach_index(SemanticConceptIndex(model))
    request = gen.request_for(profiles[3], generalize=1)
    candidates = {ad.ad_id for ad in store.candidates("semantic", request)}
    matches = {
        f"ad-{i:06d}"
        for i, p in enumerate(profiles)
        if model.matchmaker.match(p, request).matched
    }
    assert matches <= candidates  # superset contract
    assert len(candidates) <= len(profiles)


def test_indexed_path_prunes_evaluations():
    """The point of the index: fewer descriptions scored per query."""
    ontology = OntologyGenerator(11).random_ontology(
        n_service_classes=60, n_data_classes=90
    )
    gen = ProfileGenerator(ontology, seed=11)
    paths = _Paths(ontology)
    profiles = gen.profiles(300)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    request = gen.request_for(profiles[0], generalize=1, max_results=5)
    paths.assert_equivalent(request, max_results=5)
    assert paths.linear.descriptions_evaluated == len(profiles)
    assert paths.indexed.descriptions_evaluated < len(profiles)


def test_keyword_only_query_falls_back_to_linear():
    ontology = OntologyGenerator(5).random_ontology()
    gen = ProfileGenerator(ontology, seed=5)
    paths = _Paths(ontology)
    for i, profile in enumerate(gen.profiles(20)):
        paths.put(_ad(i, profile))
    index = paths.indexed_store.index_for("semantic")
    fallbacks_before = index.fallbacks
    paths.assert_equivalent(ServiceRequest.build(keywords=["anything"]))
    assert index.fallbacks == fallbacks_before + 1
    assert paths.indexed.descriptions_evaluated == paths.linear.descriptions_evaluated


def test_late_ontology_attachment_is_picked_up():
    """A registry that fetches its ontology later (E12) starts pruning."""
    ontology = OntologyGenerator(9).random_ontology()
    gen = ProfileGenerator(ontology, seed=9)
    model = SemanticModel()  # no ontology yet
    store = AdvertisementStore()
    evaluator = QueryEvaluator(store, ModelRegistry([model]))
    profiles = gen.profiles(15)
    for i, profile in enumerate(profiles):
        store.put(_ad(i, profile))
    request = gen.request_for(profiles[0], generalize=1)
    assert evaluator.evaluate("semantic", request) == []  # cannot evaluate
    model.attach_ontology(ontology)
    hits = evaluator.evaluate("semantic", request)
    linear = QueryEvaluator(
        AdvertisementStore(), ModelRegistry([SemanticModel(ontology)]),
        use_indexes=False,
    )
    for i, profile in enumerate(profiles):
        linear.store.put(_ad(i, profile))
    linear_hits = linear.evaluate("semantic", request)
    assert [(h.advertisement.ad_id, h.degree, h.score) for h in hits] \
        == [(h.advertisement.ad_id, h.degree, h.score) for h in linear_hits]


def test_store_clear_resets_index():
    ontology = OntologyGenerator(2).random_ontology()
    gen = ProfileGenerator(ontology, seed=2)
    paths = _Paths(ontology)
    for i, profile in enumerate(gen.profiles(10)):
        paths.put(_ad(i, profile))
    paths.indexed_store.clear()
    paths.linear_store.clear()
    request = gen.random_request()
    assert paths.assert_equivalent(request) == []
    assert paths.indexed_store.candidates("semantic", request) == []


def test_mid_run_growth_refreshes_every_cache_layer():
    """Ontology growth must flush bitset closures, the degree memo, and
    the index's concept/posting caches — no stale-version answers."""
    from repro.semantics.matchmaker import DegreeOfMatch

    ontology = OntologyGenerator(13).random_ontology()
    gen = ProfileGenerator(ontology, seed=13)
    paths = _Paths(ontology)
    profiles = gen.profiles(30)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    reasoner = paths.indexed_model.reasoner
    matchmaker = paths.indexed_model.matchmaker
    index = paths.indexed_store.index_for("semantic")
    parent = profiles[0].outputs[0]
    request = ServiceRequest.build(outputs=[parent])
    # Warm every layer: closure bitsets, degree memo, posting bitsets.
    paths.assert_equivalent(request)
    assert any(matchmaker._pair_tables.values()) and index._mask_cache
    parent_bits_before = reasoner.closure_bits(parent)
    levels_before = matchmaker.similarity_levels(parent)

    ontology.add_class("gen:DataLate", parents=[parent])
    # (1) closure bitsets: the new class gets an id, its closure embeds
    # the parent's closure, and subsumption sees the new edge.
    late_bits = reasoner.closure_bits("gen:DataLate")
    assert late_bits & parent_bits_before == reasoner.closure_bits(parent)
    assert late_bits != reasoner.closure_bits(parent)
    assert reasoner.subsumes(parent, "gen:DataLate")
    # (2) concept-degree memo: dropped wholesale on the version bump, and
    # degrees over the new vocabulary come out right.
    assert matchmaker.concept_degree(parent, "gen:DataLate") \
        == DegreeOfMatch.SUBSUMES
    assert matchmaker.concept_degree("gen:DataLate", parent) \
        == DegreeOfMatch.EXACT  # direct parent rule
    # (2b) similarity levels, which bound the index's scores: rebuilt with
    # the new class at its similarity to the parent.
    values, classes = matchmaker.similarity_levels(parent)
    at = next(i for i, level in enumerate(classes) if "gen:DataLate" in level)
    assert values[at] == reasoner.similarity(parent, "gen:DataLate")
    assert "gen:DataLate" not in {c for level in levels_before[1] for c in level}
    # (3) candidate sets: an ad in the new vocabulary is found through the
    # requested parent concept (the index rebuilt its posting tables).
    rebuilds_before = index.rebuilds
    paths.put(_ad(777, ServiceProfile.build(
        "svc-late", profiles[0].category, outputs=["gen:DataLate"])))
    candidates = index.candidate_ids(request)
    assert candidates is not None and "ad-000777" in candidates
    assert index.rebuilds == rebuilds_before + 1
    hits = paths.assert_equivalent(request)
    assert any(h.advertisement.ad_id == "ad-000777" for h in hits)


def test_ontology_swap_rebuilds_index_even_at_same_version():
    """``attach_ontology`` replaces the reasoner object; the index must
    key its sync on ontology identity, not just the version counter."""
    ontology_a = OntologyGenerator(21).random_ontology()
    # Same generator seed -> structurally identical ontology, *different*
    # object with an independent (equal) version counter.
    ontology_b = OntologyGenerator(21).random_ontology()
    assert ontology_a.version == ontology_b.version
    gen = ProfileGenerator(ontology_a, seed=21)
    paths = _Paths(ontology_a)
    profiles = gen.profiles(25)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    request = gen.request_for(profiles[0], generalize=1, max_results=5)
    paths.assert_equivalent(request, max_results=5)
    index = paths.indexed_store.index_for("semantic")
    rebuilds_before = index.rebuilds
    paths.indexed_model.attach_ontology(ontology_b)
    paths.linear_model.attach_ontology(ontology_b)
    paths.assert_equivalent(request, max_results=5)
    assert index.rebuilds == rebuilds_before + 1
    # The swapped-in ontology can still grow and be picked up.
    ontology_b.add_class("gen:DataSwap", parents=[profiles[0].outputs[0]])
    paths.put(_ad(888, ServiceProfile.build(
        "svc-swap", profiles[0].category, outputs=["gen:DataSwap"])))
    hits = paths.assert_equivalent(
        ServiceRequest.build(outputs=[profiles[0].outputs[0]]))
    assert any(h.advertisement.ad_id == "ad-000888" for h in hits)


# -- bitset expansion and write-patched posting bitsets -----------------------


def _lowest_set_bit_expansion(records: list, bits: int) -> list:
    """The expansion loop ``_expand`` replaced: the oracle."""
    found = []
    while bits:
        low = bits & -bits
        found.append(records[low.bit_length() - 1])
        bits ^= low
    return found


@pytest.mark.parametrize("width", (1, 7, 8, 9, 64, 1000))
def test_mask_expansion_matches_the_lowest_set_bit_loop(width):
    index = SemanticConceptIndex(SemanticModel(OntologyGenerator(0).random_ontology()))
    records = [f"ad-{slot:06d}" for slot in range(width)]  # any object per slot
    index.reset(records)
    rng = random.Random(width)
    masks = {
        "empty": 0,
        "single bit": 1 << (width // 2),
        "lowest bit only": 1,
        "top bit only": 1 << (width - 1),
        "all ones": (1 << width) - 1,
        "sparse": sum(1 << slot for slot in rng.sample(range(width), max(1, width // 9))),
        "dense": ((1 << width) - 1) & ~sum(1 << rng.randrange(width) for _ in range(3)),
        # Both sides of a byte and of a 64-bit word, and the last slot.
        "byte and word edges": sum(1 << bit for bit in {7, 8, 63, 64, width - 1}
                                   if bit < width),
    }
    if width >= 8:  # a mask whose most significant byte is exactly 0x80
        top = width - width % 8 - 1
        masks["top byte 0x80"] = 1 << top | (1 if top > 7 else 0)  # plus bit 0 when apart
    for name, bits in masks.items():
        ids = index._expand(bits)
        assert ids == _lowest_set_bit_expansion(records, bits), name
        assert ids == sorted(ids), name  # ascending slot order


def test_group_hand_out_is_lazy_and_counts_only_records_taken():
    ontology = OntologyGenerator(0).random_ontology()
    gen = ProfileGenerator(ontology, seed=0)
    paths = _Paths(ontology)
    for i, profile in reversed(list(enumerate(gen.profiles(50)))):
        paths.put(_ad(i, profile))  # slot order is the reverse of ``ad_id`` order
    index = paths.indexed_store.index_for("semantic")
    group = index._hand_out(index._all_profiles_mask())
    assert index.expanded == 0  # nothing until the first record is asked for
    taken = [next(group).ad_id for _ in range(3)]
    assert taken == ["ad-000000", "ad-000001", "ad-000002"]
    assert index.expanded == 2  # the third counts when the consumer comes back


def test_mask_expansion_over_recycled_slots():
    """Freed slots are holes the mask never names; reused ones yield the new record."""
    ontology = OntologyGenerator(3).random_ontology()
    gen = ProfileGenerator(ontology, seed=3)
    paths = _Paths(ontology)
    store, index = paths.indexed_store, paths.indexed_store.index_for("semantic")
    ads = [_ad(i, profile) for i, profile in enumerate(gen.profiles(70))]
    for ad in ads:
        store.put(ad)
    for ad in ads[5:70:3]:  # frees slots 5, 8, …, 62, 65, 68
        store.discard(ad.ad_id)
    for i in range(100, 109):
        store.put(_ad(i, gen.random_profile(i)))
    assert store._free and len(store._ads) == 70  # some reused, some still free
    live = {ad.ad_id for ad in store.all()}
    assert {f"ad-{i:06d}" for i in range(100, 109)} <= live
    bits = index._all_profiles_mask()
    found = index._expand(bits)
    assert found == _lowest_set_bit_expansion(store._ads, bits)
    assert len(found) == len(live) and {ad.ad_id for ad in found} == live
    assert index.candidate_ids(ServiceRequest.build(THING)) == live


def _assert_masks_mirror_tables(index: SemanticConceptIndex) -> None:
    """Every cached bitset equals its posting list rebuilt from scratch."""
    for (table_id, concept), cached in index._mask_cache.items():
        posting = index._tables[table_id].get(concept, b"")
        assert cached == int.from_bytes(posting, "little"), (table_id, concept)
    occupied = {slot for slot, ad in enumerate(index._records) if ad is not None}
    if index._profiles_mask is not None:
        assert index._profiles_mask == sum(1 << slot for slot in occupied)
    assert index._all_profiles_mask() == sum(1 << slot for slot in occupied)


@pytest.mark.parametrize("seed", range(4))
def test_writes_patch_cached_masks_instead_of_dropping_them(seed):
    ontology = OntologyGenerator(50 + seed).random_ontology()
    gen = ProfileGenerator(ontology, seed=50 + seed)
    rng = random.Random(50 + seed)
    paths = _Paths(ontology)
    profiles = gen.profiles(60)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    index = paths.indexed_store.index_for("semantic")
    assert not index._mask_cache and index._profiles_mask is None  # bulk load: none built
    requests = list(_requests(gen, profiles, rng)) + [ServiceRequest.build(THING)]
    for request in requests:
        paths.assert_equivalent(request, max_results=request.max_results)
    assert index._mask_cache and index._profiles_mask is not None

    live = set(range(60))
    for step in range(200):
        op = rng.choice(("add", "replace", "discard", "discard"))
        cached_before = set(index._mask_cache)
        if op == "add":
            i = 1000 + step
            paths.put(_ad(i, gen.random_profile(i)))
            live.add(i)
        elif op == "replace" and live:
            i = rng.choice(sorted(live))
            paths.put(_ad(i, gen.random_profile(5000 + step), version=step + 2))
        elif live:
            i = rng.choice(sorted(live))
            paths.discard(f"ad-{i:06d}")
            live.discard(i)
        # Patched in place: no write drops a cached key or builds a new one.
        assert set(index._mask_cache) == cached_before
        assert index._profiles_mask is not None
        _assert_masks_mirror_tables(index)
        assert index.audit() == []
        if step % 20 == 0:
            for request in requests:
                paths.assert_equivalent(request, max_results=request.max_results)
    store = paths.indexed_store
    assert store._free or len(store._ads) < 60 + 200  # slots were recycled
    assert index.rebuilds == 1

    # A version bump, then an ontology swap, each still drop every mask.
    ontology.add_class("gen:PatchGrown", parents=[profiles[0].category])
    paths.assert_equivalent(requests[0])
    assert index.rebuilds == 2
    _assert_masks_mirror_tables(index)
    stale_keys = set(index._mask_cache)
    swapped = OntologyGenerator(50 + seed).random_ontology()
    paths.indexed_model.attach_ontology(swapped)
    paths.linear_model.attach_ontology(swapped)
    index._ensure_synced()
    assert index.rebuilds == 3 and stale_keys and not index._mask_cache
    for request in requests:
        paths.assert_equivalent(request, max_results=request.max_results)
    _assert_masks_mirror_tables(index)
    assert index.audit() == []


def _moved_ontology_walk(seed: int):
    """A warmed 40-ad index plus the requests that warmed it."""
    ontology = OntologyGenerator(70 + seed).random_ontology()
    gen = ProfileGenerator(ontology, seed=70 + seed)
    paths = _Paths(ontology)
    profiles = gen.profiles(40)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    requests = list(_requests(gen, profiles, random.Random(seed)))
    for request in requests:
        paths.assert_equivalent(request, max_results=request.max_results)
    index = paths.indexed_store.index_for("semantic")
    assert index.rebuilds == 1 and index._mask_cache and index.audit() == []
    return ontology, gen, paths, profiles, requests, index


def _write_between_move_and_query(paths, gen, profiles):
    """A discard, a replace and an add, none followed by a query."""
    paths.discard("ad-000003")
    paths.put(_ad(5, gen.random_profile(905), version=2))
    paths.put(_ad(900, profiles[3]))  # recycles the freed slot under old keys


@pytest.mark.parametrize("seed", range(3))
def test_writes_after_a_version_bump_leave_no_stale_bit(seed):
    ontology, gen, paths, profiles, requests, index = _moved_ontology_walk(seed)
    # The bump re-parents a concept the discarded and the replaced ads sit
    # under, so keys derived now differ from the keys they were inserted with.
    ontology.add_class("gen:Moved")
    for moved in {profiles[3].category, profiles[5].category}:
        ontology.add_class(moved, parents=["gen:Moved"])
    assert "gen:Moved" not in index._closure_keys(profiles[3].category)  # the memo is the old one
    before = {key: bytes(p) for t in index._tables for key, p in t.items()}
    _write_between_move_and_query(paths, gen, profiles)
    # Out of sync: no posting was touched, the audit still holds what it can.
    assert before == {key: bytes(p) for t in index._tables for key, p in t.items()}
    assert index.audit() == []
    for request in requests + [ServiceRequest.build("gen:Moved"), ServiceRequest.build(THING)]:
        paths.assert_equivalent(request, max_results=request.max_results)
    assert index.rebuilds == 2 and index.audit() == []
    moved_hits = paths.assert_equivalent(ServiceRequest.build("gen:Moved"))
    assert "ad-000900" in {h.advertisement.ad_id for h in moved_hits}
    _assert_masks_mirror_tables(index)
    freed = paths.indexed_store._free
    assert all(not int.from_bytes(p, "little") >> slot & 1
               for t in index._tables for p in t.values() for slot in freed)


@pytest.mark.parametrize("swap_back", [False, True])
def test_writes_after_an_ontology_swap_leave_no_stale_bit(swap_back):
    ontology, gen, paths, profiles, requests, index = _moved_ontology_walk(0)
    swapped = OntologyGenerator(70).random_ontology()
    swapped.add_class("gen:OnlyInSwapped", parents=[profiles[5].category])
    for model in (paths.indexed_model, paths.linear_model):
        model.attach_ontology(swapped)
    _write_between_move_and_query(paths, gen, profiles)
    if swap_back:
        # The index was in sync with ``ontology`` before the swap; the
        # writes it skipped must still force the rebuild.
        for model in (paths.indexed_model, paths.linear_model):
            model.attach_ontology(ontology)
    assert index.audit() == []
    for request in requests + [ServiceRequest.build(THING, max_results=100)]:
        paths.assert_equivalent(request, max_results=request.max_results)
    assert index.rebuilds == 2 and index.audit() == []
    added = paths.assert_equivalent(gen.request_for(profiles[3], generalize=0))
    assert "ad-000900" in {h.advertisement.ad_id for h in added}
    _assert_masks_mirror_tables(index)


def test_postings_grow_across_byte_boundaries_and_recycled_slots():
    ontology = OntologyGenerator(11).random_ontology()
    gen = ProfileGenerator(ontology, seed=11)
    paths = _Paths(ontology)
    early, late = gen.random_profile(0), gen.random_profile(1)
    assert early.category != late.category
    # ``early``'s postings are created at slot 0, ``late``'s at slot 8 —
    # after the first byte boundary — and both are then set at 7, 8, 63, 64.
    layout = {0: early, 7: early, 8: late, 9: early, 63: late, 64: early, 65: late}
    for i in range(70):
        paths.put(_ad(i, layout.get(i, gen.random_profile(100 + i))))
    index = paths.indexed_store.index_for("semantic")
    for profile in (early, late):
        paths.assert_equivalent(gen.request_for(profile, generalize=0), max_results=70)
    exact = index._tables[2]  # category-exact postings
    assert len(exact[early.category]) >= 9 and len(exact[late.category]) >= 9
    for slot, profile in layout.items():
        assert exact[profile.category][slot >> 3] >> (slot & 7) & 1, slot
    assert not exact[late.category][0]  # created past byte 0, which stays zero
    assert index.audit() == []
    # Free the boundary slots, then refill them with the *other* profile.
    for slot in (7, 8, 63, 64):
        paths.discard(f"ad-{slot:06d}")
        assert index.audit() == []
    store = paths.indexed_store
    assert sorted(store._free) == [7, 8, 63, 64]
    for n, slot in enumerate((64, 63, 8, 7)):  # the free list pops from its end
        other = late if layout[slot] is early else early
        paths.put(_ad(200 + n, other))
        assert store._slot_of[f"ad-{200 + n:06d}"] == slot
        assert exact[other.category][slot >> 3] >> (slot & 7) & 1
        assert not exact[layout[slot].category][slot >> 3] >> (slot & 7) & 1
        assert index.audit() == []
    assert len(store._ads) == 70 and not store._free
    for profile in (early, late):
        paths.assert_equivalent(gen.request_for(profile, generalize=0), max_results=70)
        paths.assert_equivalent(gen.request_for(profile, generalize=1), max_results=70)
    _assert_masks_mirror_tables(index)


def test_audit_names_each_kind_of_rot():
    ontology = OntologyGenerator(12).random_ontology()
    gen = ProfileGenerator(ontology, seed=12)
    paths = _Paths(ontology)
    profiles = gen.profiles(20)
    for i, profile in enumerate(profiles):
        paths.put(_ad(i, profile))
    category = profiles[0].category
    paths.assert_equivalent(ServiceRequest.build(category))  # caches its exact posting
    paths.assert_equivalent(ServiceRequest.build(THING))
    index = paths.indexed_store.index_for("semantic")
    assert index.audit() == [] and (2, category) in index._mask_cache
    slot = paths.indexed_store._slot_of["ad-000000"]

    index._tables[2][category][slot >> 3] &= ~(1 << (slot & 7))  # a lost bit
    assert any("differs from its rebuild" in v for v in index.audit())
    assert any("cached bitset" in v for v in index.audit())  # the int still has it
    index._tables[2][category][slot >> 3] |= 1 << (slot & 7)
    assert index.audit() == []

    index._tables[2][category].extend(b"\x00\x01")  # a bit past the last slot
    assert any("beyond the slot space" in v for v in index.audit())
    del index._tables[2][category][-2:]

    posting = index._tables[2].pop(category)  # a whole posting gone
    assert any("differs from its rebuild" in v for v in index.audit())
    index._tables[2][category] = posting

    index._profiles_mask ^= 1 << slot
    assert index.audit() == ["profile mask differs from the indexed profiles"]
    index._profiles_mask ^= 1 << slot
    assert index.audit() == []


def test_thing_request_after_a_write_reads_the_patched_profiles_mask(monkeypatch):
    ontology = OntologyGenerator(8).random_ontology()
    gen = ProfileGenerator(ontology, seed=8)
    paths = _Paths(ontology)
    for i, profile in enumerate(gen.profiles(20)):
        paths.put(_ad(i, profile))
    index = paths.indexed_store.index_for("semantic")
    thing = ServiceRequest.build(THING, max_results=50)
    assert len(paths.assert_equivalent(thing, max_results=50)) == 20
    paths.put(_ad(99, gen.random_profile(99)))
    paths.discard("ad-000003")
    monkeypatch.setattr(index, "_bits_of", lambda slots: pytest.fail("mask rebuilt"))
    hits = paths.assert_equivalent(thing, max_results=50)
    assert len(hits) == 20
    assert {"ad-000099"} <= {h.advertisement.ad_id for h in hits}
    assert "ad-000003" not in {h.advertisement.ad_id for h in hits}


def test_other_models_records_share_the_slots_and_ride_in_no_group():
    """The store's slot space is shared by every model: the semantic index
    keeps no bit for another model's record, hands none out, and counts
    every record it does hand out."""
    ontology = OntologyGenerator(9).random_ontology()
    gen = ProfileGenerator(ontology, seed=9)
    store, index = AdvertisementStore(), SemanticConceptIndex(SemanticModel(ontology))
    store.attach_index(index)
    profiles = gen.profiles(15)
    for i, profile in enumerate(profiles):
        store.put(_ad(i, profile))
        if i == 3:
            store.put(_record(900, None))  # a URI record at slot 4
    request = gen.request_for(profiles[0], generalize=0)
    (bound, strongest), *weaker = index.candidate_buckets(request)
    assert index.expanded == 0  # bounds handed out, no body expanded yet
    ids = [ad.ad_id for ad in strongest]
    assert bound == (3, 1.0) and "ad-000000" in ids and "ad-000900" not in ids
    assert index.expanded == len(ids)
    assert "ad-000900" not in index.candidate_ids(request)
    assert not index._all_profiles_mask() >> store._slot_of["ad-000900"] & 1
    assert index.audit() == []


def _postings(index: SemanticConceptIndex) -> dict[tuple[int, str], int]:
    """Every posting of ``index`` as an int, keyed by (table, concept)."""
    return {(table_id, key): int.from_bytes(posting, "little")
            for table_id, table in enumerate(index._tables) for key, posting in table.items()}


def _postings_key_by_key(index: SemanticConceptIndex) -> dict[tuple[int, str], int]:
    """The postings built slot by slot from each profile's ``_keys_of``."""
    rebuilt: dict[tuple[int, str], int] = {}
    for slot, profile in index._indexed():
        for table_id, keys in enumerate(index._keys_of(profile)):
            for key in keys:
                rebuilt[table_id, key] = rebuilt.get((table_id, key), 0) | 1 << slot
    return rebuilt


def _odd_profiles(gen: ProfileGenerator):
    """Profiles over the generator's pools plus THING, concepts outside the
    ontology and repeated outputs; ``None`` stands for another model's record."""
    categories = st.sampled_from(gen.category_pool + [THING, "gen:NotAConcept"])
    concepts = st.sampled_from(gen.data_pool + [THING, "gen:AlsoMissing"])
    profiles = st.builds(ServiceProfile, service_name=st.just("svc"), category=categories,
                         outputs=st.lists(concepts, max_size=4).map(tuple))
    return st.one_of(profiles, st.none())


def _record(index: int, profile: ServiceProfile | None) -> Advertisement:
    if profile is not None:
        return _ad(index, profile)
    return Advertisement(ad_id=f"ad-{index:06d}", service_node="n", service_name="s",
                         endpoint="e", model_id="uri",
                         description=UriDescription("gen:Service1", "e"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_bulk_rebuild_builds_the_postings_the_per_advertisement_path_would(seed, data):
    ontology = OntologyGenerator(seed).random_ontology(n_service_classes=8, n_data_classes=12)
    gen = ProfileGenerator(ontology, seed=seed)
    paths = _Paths(ontology)
    index = paths.indexed_store.index_for("semantic")
    records = data.draw(st.lists(_odd_profiles(gen), max_size=40), label="records")
    for i, profile in enumerate(records):
        paths.put(_record(i, profile))
    for i in data.draw(st.sets(st.sampled_from(range(len(records)))) if records
                       else st.just(set()), label="freed"):
        paths.discard(f"ad-{i:06d}")
    index._indexed_ontology = None
    index._ensure_synced()
    assert _postings(index) == _postings_key_by_key(index)
    assert index.audit() == []

    writes = data.draw(st.lists(st.tuples(st.booleans(), _odd_profiles(gen)), max_size=20),
                       label="writes")
    for step, (put, profile) in enumerate(writes):
        live = sorted(paths.indexed_store._slot_of)
        if put or not live:
            paths.put(_record(100 + step, profile))
        else:
            paths.discard(data.draw(st.sampled_from(live), label="discarded"))
        assert index.audit() == []
    rng = random.Random(seed)
    for request in _requests(gen, gen.profiles(3), rng):
        paths.assert_equivalent(request, max_results=request.max_results)


def test_a_rebuild_works_per_advertised_concept_not_per_key(monkeypatch):
    ontology = OntologyGenerator(13).random_ontology()
    gen = ProfileGenerator(ontology, seed=13)
    store, index = AdvertisementStore(), SemanticConceptIndex(SemanticModel(ontology))
    store.attach_index(index)
    profiles = gen.profiles(300)
    for i, profile in enumerate(profiles):
        store.put(_ad(i, profile))
    advertised = {p.category for p in profiles} | {o for p in profiles for o in p.outputs}
    calls = {"_set_keys": 0, "_keys_of": 0, "_closure_keys": 0}
    for name in calls:
        def counted(*args, _name=name, _method=getattr(index, name), **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(index, name, counted)
    request = gen.request_for(profiles[0], generalize=1)
    for bump in range(2):  # the first query after the bulk load, then after an ontology bump
        calls.update(dict.fromkeys(calls, 0))
        assert index.candidate_ids(request) and index.rebuilds == bump + 1
        assert calls["_set_keys"] == calls["_keys_of"] == 0
        assert 0 < calls["_closure_keys"] <= len(advertised)
        assert index.audit() == []
        ontology.add_class(f"gen:Bumped{bump}", parents=[profiles[0].category])
