"""Resident bytes per stored advertisement, per generated profile and per
discover: ceilings that only fall.

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

Then each lease became its own expiry-heap entry (no ``(due, grant_no,
lease)`` tuple), the store's per-model id set an insertion-ordered dict,
and the index's slot -> profile table a list: the first row below. The
profile records themselves exist before any registry does, and on the
``wan_100k`` benchmark they are half of the peak, so a second ceiling
holds what one ``ProfileGenerator`` record keeps, over 5,000 of them.
Its reading fell when QoS became one shared names tuple per attribute
set plus a tuple of values (it was a tuple of ``(name, value)`` tuples
per profile) and the provider was interned: the second row.

=====================================  ===========  ===========  ==========
bytes retained                         before       compact      columnar
                                                                 leases
=====================================  ===========  ===========  ==========
per advertisement (as above)           565          420          221
per generated profile record           704          485          485
=====================================  ===========  ===========  ==========

The third column holds each lease in four columns of its store slot (two
``array('d')``, two ``array('q')``) and one packed int in the expiry heap,
with no ``Lease`` object, grant-number int, expiry float or id string per
advertisement: 348 -> 221 B per advertisement.

The third ceiling is what a run's trace recorder keeps per completed
query, read over discovers 128..384 of :func:`tests.deployments.e7_ring`
with no trace capture attached — the way every benchmark deployment runs:

=====================================  ===========  ===========  ===========
bytes retained per discover            all kept     if captured  unlistened
=====================================  ===========  ===========  ===========
``obs/tracing.py``                     8,959        378          0
=====================================  ===========  ===========  ===========

The first column is the recorder that kept every span and event for the
whole run; the second keeps them only in a capture somebody attached,
which left the root span each ``DiscoveryCall`` held (the client kept
every call it issued then).
The third opens no span while nobody listens: what is left is the
recorder's sequence number, one int for the whole run (0.1 B per
discover over 256 of them).

The fourth ceiling is what a registry-less LAN keeps per service node: a
settled :func:`tests.deployments.fallback_lan` of 100 services, generated
profiles included, after 32 discovers that every service evaluates. Each
node's semantic model used to reason on a matchmaker and reasoner of its
own, each warming its own closure, ancestor and pair caches; now the
deployment's nodes share one (``make mem-attr WORKLOAD=lan_fallback``:
``LanFallback.build`` retains 19,227 → 7,962 B per service node).

=====================================  ===========  ===========
bytes retained per service node        own          shared
=====================================  ===========  ===========
``fallback_lan``, 100 services         21,727       10,475
=====================================  ===========  ===========

The fifth ceiling is what the whole program keeps per discover: bytes
retained by all of ``src/`` over discovers 128..384 of
:func:`tests.deployments.e7_ring`, with no handle kept and read once the
last call's query timeout has passed. The client used to keep every
``DiscoveryCall`` it issued, with its hits and id strings; now the
caller's handle is the only one. What is left is bounded by time, not by
the run's length: forwarding's duplicate-suppression window and the wire
ids it holds.

=====================================  ===========  ===========
bytes retained per discover            history      no history
=====================================  ===========  ===========
all of ``src/``                        1,056        348
=====================================  ===========  ===========
"""

from __future__ import annotations

import gc
import pathlib
import random
import tracemalloc

import repro
from repro.descriptions.base import ModelRegistry
from repro.descriptions.semantic import SemanticModel
from repro.obs import tracing
from repro.registry.leases import LeaseManager
from repro.registry.matching import QueryEvaluator
from repro.registry.store import AdvertisementStore
from repro.semantics.generator import OntologyGenerator, ProfileGenerator
from tests.deployments import e7_ring, fallback_lan
from tests.test_query_path_properties import _ad, _request_corpus

N_ADS = 5_000
#: ~15 % above the columnar-leases reading. Lowered when a change earns
#: it, never raised.
CEILING_BYTES_PER_AD = 255
#: ~15 % above the compact reading; the same rule.
CEILING_BYTES_PER_PROFILE = 560
#: Under one byte: the unlistened reading is one int for the whole run,
#: and one object kept per discover would cost 16 or more. The same rule.
CEILING_TRACE_BYTES_PER_DISCOVER = 1
#: ~15 % above the shared-matchmaker reading; the same rule.
CEILING_BYTES_PER_SERVICE_NODE = 12_000
N_SERVICE_NODES = 100
#: ~15 % above the no-history reading; the same rule.
CEILING_SRC_BYTES_PER_DISCOVER = 400


def retained_bytes_per_ad() -> float:
    """What a registry's structures hold per advertisement, records excluded.

    The advertisements (and their profiles) exist before tracing starts, so
    the reading is the store's dicts and lease columns, the index's slot
    table, postings and cached bitsets, and the lease expiry heap.
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
        leases = LeaseManager(lambda: 0.0, store)
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


def retained_bytes_per_profile() -> float:
    """What one generated profile record holds: the ``ServiceProfile``, its
    strings and tuples, and its slot in the list that keeps it."""
    ontology = OntologyGenerator(7).random_ontology()
    gen = ProfileGenerator(ontology, seed=7)
    gen.profiles(16)  # first-use allocations (shared QoS names) happen here
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        profiles = gen.profiles(N_ADS)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(profiles) == N_ADS
    return retained / N_ADS


def test_bytes_retained_per_advertisement_stay_under_the_ceiling():
    per_ad = retained_bytes_per_ad()
    assert per_ad <= CEILING_BYTES_PER_AD, (
        f"{per_ad:.0f} bytes retained per advertisement (ceiling "
        f"{CEILING_BYTES_PER_AD}): a registry structure now keeps more per "
        "record. Find it with `make mem-attr`; store it more cheaply, or "
        "justify the new ceiling in the pull request."
    )


def test_bytes_retained_per_generated_profile_stay_under_the_ceiling():
    per_profile = retained_bytes_per_profile()
    assert per_profile <= CEILING_BYTES_PER_PROFILE, (
        f"{per_profile:.0f} bytes retained per generated profile (ceiling "
        f"{CEILING_BYTES_PER_PROFILE}): a ServiceProfile now holds more. Find it "
        "with `make mem-attr` (the inputs table); store it more cheaply, or "
        "justify the new ceiling in the pull request."
    )


def trace_bytes_per_discover() -> float:
    """What ``obs/tracing.py`` allocates and still holds per discover,
    over discovers 128..384 of a settled E7 ring (no capture attached)."""
    deployment = e7_ring()
    deployment.discover(128)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        calls = deployment.discover(256)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    only = [tracemalloc.Filter(True, tracing.__file__)]
    grown = after.filter_traces(only).compare_to(before.filter_traces(only), "filename")
    return sum(stat.size_diff for stat in grown) / len(calls)


def test_trace_bytes_retained_per_discover_stay_under_the_ceiling():
    per_discover = trace_bytes_per_discover()
    assert per_discover <= CEILING_TRACE_BYTES_PER_DISCOVER, (
        f"{per_discover:.0f} bytes retained by obs/tracing.py per discover "
        f"(ceiling {CEILING_TRACE_BYTES_PER_DISCOVER}): the trace recorder "
        "keeps records nobody asked for again. Find them with "
        "`make mem-attr WORKLOAD=wan_small GROWTH=512`."
    )


def src_bytes_per_discover() -> float:
    """What all of ``src/`` allocates and still holds per discover, over
    discovers 128..384 of a settled E7 ring, once the caller has dropped
    every handle and the last query timeout has passed."""
    deployment = e7_ring()
    deployment.discover(128)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        issued = len(deployment.discover(256))
        deployment.system.run_for(deployment.system.config.query_timeout)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    only = [tracemalloc.Filter(True, str(pathlib.Path(repro.__file__).parent / "*"))]
    grown = after.filter_traces(only).compare_to(before.filter_traces(only), "filename")
    return sum(stat.size_diff for stat in grown) / issued


def test_src_bytes_retained_per_discover_stay_under_the_ceiling():
    per_discover = src_bytes_per_discover()
    assert per_discover <= CEILING_SRC_BYTES_PER_DISCOVER, (
        f"{per_discover:.0f} bytes retained by src/ per discover (ceiling "
        f"{CEILING_SRC_BYTES_PER_DISCOVER}): something now keeps what an "
        "answered query leaves behind. Find it with `make mem-attr "
        "WORKLOAD=wan_small GROWTH=2048`."
    )


def retained_bytes_per_service_node() -> float:
    """What a settled registry-less LAN of 100 services holds per service
    node after 32 discovers: nodes, timers, profiles and the semantic
    caches their discovers warmed."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        deployment = fallback_lan(services=N_SERVICE_NODES)
        deployment.discover(32)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(deployment.system.services) == N_SERVICE_NODES
    return retained / N_SERVICE_NODES


def test_bytes_retained_per_service_node_stay_under_the_ceiling():
    per_node = retained_bytes_per_service_node()
    assert per_node <= CEILING_BYTES_PER_SERVICE_NODE, (
        f"{per_node:.0f} bytes retained per service node (ceiling "
        f"{CEILING_BYTES_PER_SERVICE_NODE}): a node, or the reasoning its "
        "queries warm, now keeps more. Find it with `make mem-attr "
        "WORKLOAD=lan_fallback`; keep it shared or cheaper, or justify the new "
        "ceiling in the pull request."
    )


if __name__ == "__main__":
    print(f"{retained_bytes_per_ad():.0f} bytes retained per advertisement")
    print(f"{retained_bytes_per_profile():.0f} bytes retained per generated profile")
    print(f"{trace_bytes_per_discover():.0f} bytes retained by obs/tracing.py per discover")
    print(f"{retained_bytes_per_service_node():.0f} bytes retained per service node")
    print(f"{src_bytes_per_discover():.0f} bytes retained by src/ per discover")
