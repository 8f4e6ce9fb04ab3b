"""Unit tests for the advertisement store and records."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.descriptions.semantic import SemanticModel
from repro.descriptions.uri import UriDescription
from repro.errors import AdvertisementNotFoundError, LeaseError
from repro.registry.advertisements import Advertisement, new_uuid
from repro.registry.index import ConceptIndexer, SemanticConceptIndex
from repro.registry.leases import LeaseManager
from repro.registry.store import AdvertisementStore
from repro.semantics.generator import OntologyGenerator, ProfileGenerator
from tests.test_registry_index import _requests


def _ad(ad_id="ad-1", service_node="svc-node-1", name="svc-1", version=1,
        model_id="uri"):
    return Advertisement(
        ad_id=ad_id,
        service_node=service_node,
        service_name=name,
        endpoint=f"svc://{name}",
        model_id=model_id,
        description=UriDescription(f"uri:{name}", f"svc://{name}"),
        version=version,
    )


def test_new_uuid_unique_and_prefixed():
    a, b = new_uuid("ad"), new_uuid("ad")
    assert a != b
    assert a.startswith("ad-")
    assert new_uuid("lease").startswith("lease-")


def test_put_and_get():
    store = AdvertisementStore()
    ad = _ad()
    store.put(ad)
    assert store.get("ad-1") is ad
    assert "ad-1" in store
    assert len(store) == 1


def test_get_missing_raises():
    with pytest.raises(AdvertisementNotFoundError):
        AdvertisementStore().get("ghost")


def test_newer_version_replaces():
    store = AdvertisementStore()
    store.put(_ad(version=1))
    newer = _ad(version=2)
    store.put(newer)
    assert store.get("ad-1").version == 2


def test_stale_version_ignored():
    store = AdvertisementStore()
    current = _ad(version=3)
    store.put(current)
    result = store.put(_ad(version=1))
    assert result is current
    assert store.get("ad-1").version == 3


def test_remove_and_discard():
    store = AdvertisementStore()
    store.put(_ad())
    removed = store.remove("ad-1")
    assert removed.ad_id == "ad-1"
    assert len(store) == 0
    assert store.discard("ad-1") is None  # already gone
    with pytest.raises(AdvertisementNotFoundError):
        store.remove("ad-1")


def test_by_service_index():
    store = AdvertisementStore()
    store.put(_ad(ad_id="ad-1", service_node="node-a"))
    store.put(_ad(ad_id="ad-2", service_node="node-a", model_id="semantic"))
    store.put(_ad(ad_id="ad-3", service_node="node-b"))
    assert [a.ad_id for a in store.by_service("node-a")] == ["ad-1", "ad-2"]
    store.remove("ad-1")
    store.remove("ad-2")
    assert store.by_service("node-a") == []
    assert [a.ad_id for a in store.by_service("node-b")] == ["ad-3"]


def test_by_service_scan_follows_every_kind_of_write():
    """No per-service index is kept; the scan must still see each write."""
    store = AdvertisementStore()

    def view():
        nodes = ("node-a", "node-b", "node-c", "node-d")
        return {node: [a.ad_id for a in owned]
                for node in nodes if (owned := store.by_service(node))}

    store.put(_ad(ad_id="ad-2", service_node="node-a"))
    store.put(_ad(ad_id="ad-1", service_node="node-a", model_id="semantic"))
    store.put(_ad(ad_id="ad-3", service_node="node-b"))
    assert view() == {"node-a": ["ad-1", "ad-2"], "node-b": ["ad-3"]}  # UUID order
    assert store.by_service("node-a")[0] is store.get("ad-1")
    # A newer version published by another service node moves the record …
    store.put(_ad(ad_id="ad-2", service_node="node-c", version=2))
    assert view() == {"node-a": ["ad-1"], "node-b": ["ad-3"], "node-c": ["ad-2"]}
    # … a stale one does not.
    store.put(_ad(ad_id="ad-2", service_node="node-d", version=1))
    assert view() == {"node-a": ["ad-1"], "node-b": ["ad-3"], "node-c": ["ad-2"]}
    assert store.discard("ad-1").service_node == "node-a"
    assert view() == {"node-b": ["ad-3"], "node-c": ["ad-2"]}
    assert store.by_service("node-a") == [] and store.by_service("never-seen") == []
    store.clear()
    assert view() == {} and store.by_service("node-b") == []
    assert not hasattr(store, "_by_service")


def test_of_model_filter():
    store = AdvertisementStore()
    store.put(_ad(ad_id="ad-1", model_id="uri"))
    store.put(_ad(ad_id="ad-2", model_id="semantic"))
    assert [a.ad_id for a in store.of_model("semantic")] == ["ad-2"]


def test_of_model_index_stays_current():
    store = AdvertisementStore()
    store.put(_ad(ad_id="ad-2", model_id="uri"))
    store.put(_ad(ad_id="ad-1", model_id="uri"))
    assert [a.ad_id for a in store.of_model("uri")] == ["ad-1", "ad-2"]  # UUID order
    store.remove("ad-1")
    assert [a.ad_id for a in store.of_model("uri")] == ["ad-2"]
    # A republish that switches description model moves the index entry.
    store.put(_ad(ad_id="ad-2", model_id="semantic", version=2))
    assert store.of_model("uri") == []
    assert [a.ad_id for a in store.of_model("semantic")] == ["ad-2"]
    store.clear()
    assert store.of_model("semantic") == []


_ONTOLOGY = OntologyGenerator(11).random_ontology(n_service_classes=8, n_data_classes=12)
_GEN = ProfileGenerator(_ONTOLOGY, seed=11)
_PROFILES = _GEN.profiles(12)

#: One write: ``(kind, ad number, model, version, profile number)``. Ids
#: repeat, so puts upgrade (possibly into the other model), go stale, and
#: land in slots that removes and clears freed.
_WRITES = st.lists(st.tuples(
    st.sampled_from(["put", "put", "put", "remove", "clear"]),
    st.integers(0, 9), st.sampled_from(["semantic", "uri"]), st.integers(1, 3),
    st.integers(0, len(_PROFILES) - 1)), max_size=40)


class _Ledger(ConceptIndexer):
    """An eager indexer: the slots holding a ``uri`` record, bulk-loaded in
    ``reset`` and kept by ``add``/``discard``. (The semantic index rebuilds
    from the slot list at its first query, so only an indexer like this one
    holds what its own bulk load took.)"""

    model_id = "uri"

    def reset(self, records) -> None:
        self.records = records
        self.slots = {slot for slot, ad in enumerate(records)
                      if ad is not None and ad.model_id == self.model_id}

    def add(self, slot, ad) -> None:
        self.slots.add(slot)

    def discard(self, slot, ad) -> None:
        self.slots.remove(slot)

    def candidate_ids(self, query) -> set[str]:
        return {self.records[slot].ad_id for slot in self.slots}

    def audit(self) -> list[str]:
        held = {slot for slot, ad in enumerate(self.records)
                if ad is not None and ad.model_id == self.model_id}
        return [] if held == self.slots else [f"ledger {sorted(self.slots)} != {sorted(held)}"]


def _written(store: AdvertisementStore, writes) -> None:
    for kind, n, model_id, version, profile in writes:
        ad_id = f"ad-{n}"
        if kind == "clear":
            store.clear()
        elif kind == "remove":
            store.discard(ad_id)
        elif model_id == "uri":
            store.put(_ad(ad_id=ad_id, version=version))
        else:
            store.put(Advertisement(
                ad_id=ad_id, service_node="svc-node-1", service_name="svc",
                endpoint="svc://svc", model_id="semantic",
                description=_PROFILES[profile], version=version))


@settings(max_examples=80, deadline=None)
@given(writes=_WRITES)
def test_of_model_and_a_late_index_read_the_slots_alone(writes):
    """With no per-model id set, ``of_model`` is the filtered UUID-ordered
    store, and an index attached after any write sequence holds what one
    attached before it does: sound, and handing out the same candidates."""
    early, late = AdvertisementStore(), AdvertisementStore()
    for indexer in (SemanticConceptIndex(SemanticModel(_ONTOLOGY)), _Ledger()):
        early.attach_index(indexer)
    _written(early, writes)
    _written(late, writes)
    for indexer in (SemanticConceptIndex(SemanticModel(_ONTOLOGY)), _Ledger()):
        late.attach_index(indexer)
    for model_id in ("semantic", "uri", "template"):
        expected = sorted((a for a in late.all() if a.model_id == model_id),
                          key=lambda a: a.ad_id)
        assert late.of_model(model_id) == early.of_model(model_id) == expected
    assert early.audit() == late.audit() == []
    assert late.index_for("uri").candidate_ids(None) == early.index_for("uri").candidate_ids(None)
    for request in _requests(_GEN, _PROFILES, random.Random(len(writes))):
        assert (late.index_for("semantic").candidate_ids(request)
                == early.index_for("semantic").candidate_ids(request))


def test_candidates_without_index_is_linear_scan():
    store = AdvertisementStore()
    store.put(_ad(ad_id="ad-1", model_id="uri"))
    assert store.candidates("uri", object()) == store.of_model("uri")
    assert store.index_for("uri") is None


def test_one_slot_per_advertisement_reused_once_freed():
    """An upgrade keeps the ad's slot and its lease; a removal frees both,
    and the next new ad reuses the slot with no lease in it."""
    store = AdvertisementStore()
    leases = LeaseManager(lambda: 0.0, store)
    for ad_id in ("ad-1", "ad-2", "ad-3"):
        store.put(_ad(ad_id=ad_id))
    lease = leases.restore("ad-2", lease_id="lease-000042", duration=5.0, expires_at=5.0)
    store.put(_ad(ad_id="ad-2", version=2))
    assert leases.lease_for_ad("ad-2") == lease
    assert store.put(_ad(ad_id="ad-2", version=1)).version == 2  # stale: kept
    assert leases.lease_for_ad("ad-2") == lease
    assert store.discard("ad-2").version == 2
    assert leases.lease_for_ad("ad-2") is None and "ad-2" not in store
    store.put(_ad(ad_id="ad-4"))
    assert leases.lease_for_ad("ad-4") is None
    assert len(store._ads) == len(store._lease_grants) == 3  # ad-4 took ad-2's slot
    assert [a.ad_id for a in store.all()] == ["ad-1", "ad-3", "ad-4"]
    with pytest.raises(LeaseError):
        leases.grant("ad-2")  # no lease without its advertisement


def test_all_sorted_by_uuid():
    store = AdvertisementStore()
    store.put(_ad(ad_id="ad-9"))
    store.put(_ad(ad_id="ad-1"))
    assert [a.ad_id for a in store.all()] == ["ad-1", "ad-9"]


def test_clear():
    store = AdvertisementStore()
    store.put(_ad())
    store.clear()
    assert len(store) == 0
    assert store.all() == [] and store.by_service("svc-node-1") == []
    store.put(_ad(ad_id="ad-2"))
    assert [a.ad_id for a in store.all()] == ["ad-2"]


def test_bumped_copy():
    ad = _ad(version=1)
    bumped = ad.bumped(UriDescription("uri:new", "svc://svc-1"), now=5.0)
    assert bumped.version == 2
    assert bumped.description == UriDescription("uri:new", "svc://svc-1")
    assert bumped.published_at == 5.0
    assert ad.version == 1  # original untouched


def test_advertisement_size_includes_description():
    small = _ad()
    large = Advertisement(
        ad_id="ad-x", service_node="n", service_name="s", endpoint="e",
        model_id="uri", description=UriDescription("x" * 5000, "e"),
    )
    assert large.size_bytes() > small.size_bytes()
    assert large.size_bytes() == 5001 + 96  # the description's bytes + the record's
