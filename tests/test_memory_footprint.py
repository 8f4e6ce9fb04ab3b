"""Resident bytes per stored advertisement: a ceiling that only falls.

The paper's registries are "thick" and sit on the same resource-poor nodes
as the services, so what one advertisement costs a registry *beyond the
record itself* is a first-class number. This pins it the way
``tests/test_config_surface.py`` pins the settable values and
``tests/test_kernel_surface.py`` the registry's line count: a change that
makes an advertisement dearer fails here, a change that makes it cheaper
lowers ``CEILING_BYTES_PER_AD`` — nothing raises it without saying why in
the pull request.

Readings (CPython 3.11; ``PYTHONPATH=src:. python
tests/test_memory_footprint.py`` prints the current tree's), 5,000
generated profiles, the 10-request corpus, the same in every run:

=====================================  ==========  =========
bytes retained per advertisement       PR 23       PR 24
=====================================  ==========  =========
store + concept index + lease manager  2,325       564
=====================================  ==========  =========

PR 24 dropped the ``set[int]`` postings kept beside the bitsets, the
per-advertisement key tuples, the store's per-service-node index and the
lease's ``__dict__``.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

from repro.descriptions.base import ModelRegistry
from repro.descriptions.semantic import SemanticModel
from repro.registry.leases import LeaseManager
from repro.registry.matching import QueryEvaluator
from repro.registry.store import AdvertisementStore
from repro.semantics.generator import OntologyGenerator, ProfileGenerator
from tests.test_query_path_properties import _ad, _request_corpus

N_ADS = 5_000
#: ~15 % above PR 24's reading. Lowered when a change earns it, never raised.
CEILING_BYTES_PER_AD = 650


def retained_bytes_per_ad() -> float:
    """What a registry's structures hold per advertisement, records excluded.

    The advertisements (and their profiles) exist before tracing starts, so
    the reading is the store's dicts, the index's slot table, postings and
    cached bitsets, and the lease objects with their maps and heap entries.
    """
    ontology = OntologyGenerator(7).random_ontology()
    gen = ProfileGenerator(ontology, seed=7)
    profiles = gen.profiles(N_ADS)
    ads = [_ad(i, profile) for i, profile in enumerate(profiles)]
    requests = list(_request_corpus(gen, profiles, random.Random(7)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = AdvertisementStore()
        evaluator = QueryEvaluator(store, ModelRegistry([SemanticModel(ontology)]))
        leases = LeaseManager(lambda: 0.0)
        for ad in ads:
            store.put(ad)
            leases.grant(ad.ad_id, 1e9)
        hits = [
            evaluator.evaluate("semantic", request, max_results=request.max_results)
            for request in requests
        ]
        assert any(hits)
        del hits
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(store) == len(leases) == N_ADS
    return retained / N_ADS


def test_bytes_retained_per_advertisement_stay_under_the_ceiling():
    per_ad = retained_bytes_per_ad()
    assert per_ad <= CEILING_BYTES_PER_AD, (
        f"{per_ad:.0f} bytes retained per advertisement (ceiling "
        f"{CEILING_BYTES_PER_AD}): a registry structure now keeps more per "
        "record. Find it with `make mem-attr`; store it more cheaply, or "
        "justify the new ceiling in the pull request."
    )


if __name__ == "__main__":
    print(f"{retained_bytes_per_ad():.0f} bytes retained per advertisement")
