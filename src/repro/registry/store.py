"""The advertisement store inside a registry node.

"Thick" storage, per the paper: registries "contain all the information in
the service advertisements, not just pointers to where the advertisements
are". The store is indexed by advertisement UUID and by description
model; pluggable :class:`~repro.registry.index.ConceptIndexer` plug-ins
(attached per model) additionally maintain inverted concept indexes so
query evaluation scales with the candidate set rather than the store
size. There is no per-service-node index (no registry path asks for one):
:meth:`AdvertisementStore.by_service` is a scan.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable, Iterator, TYPE_CHECKING

from repro.errors import AdvertisementNotFoundError
from repro.registry.advertisements import Advertisement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.registry.index import ConceptIndexer


class AdvertisementStore:
    """In-memory advertisement storage with UUID and model indexes."""

    def __init__(self) -> None:
        self._by_id: dict[str, Advertisement] = {}
        #: model id -> its ad ids, in insertion order (a dict used as an
        #: ordered set: smaller than a ``set`` at registry sizes).
        self._by_model: dict[str, dict[str, None]] = defaultdict(dict)
        self._indexes: dict[str, "ConceptIndexer"] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, ad_id: str) -> bool:
        return ad_id in self._by_id

    def attach_index(self, indexer: "ConceptIndexer") -> None:
        """Install (or replace) the concept indexer for one model.

        The indexer is reset and bulk-loaded with the advertisements
        already stored for its model, then kept current incrementally on
        every ``put``/``remove``/``clear``.
        """
        self._indexes[indexer.model_id] = indexer
        indexer.reset()
        for ad_id in self._by_model.get(indexer.model_id, ()):
            indexer.add(self._by_id[ad_id])

    def index_for(self, model_id: str) -> "ConceptIndexer | None":
        """The attached concept indexer for one model, if any."""
        return self._indexes.get(model_id)

    def put(self, ad: Advertisement) -> Advertisement:
        """Insert or upgrade an advertisement.

        An existing record with the same UUID is replaced only by an equal
        or newer version (replication may deliver stale copies out of
        order); the stored (possibly newer) record is returned.
        """
        existing = self._by_id.get(ad.ad_id)
        if existing is not None and existing.version > ad.version:
            return existing
        if existing is not None:
            self._unlink(existing)
        self._by_id[ad.ad_id] = ad
        self._by_model[ad.model_id][ad.ad_id] = None
        indexer = self._indexes.get(ad.model_id)
        if indexer is not None:
            indexer.add(ad)
        return ad

    def get(self, ad_id: str) -> Advertisement:
        """Fetch by UUID; raises :class:`AdvertisementNotFoundError`."""
        try:
            return self._by_id[ad_id]
        except KeyError:
            raise AdvertisementNotFoundError(f"unknown advertisement {ad_id!r}") from None

    def remove(self, ad_id: str) -> Advertisement:
        """Delete by UUID; returns the removed record."""
        ad = self.get(ad_id)
        del self._by_id[ad_id]
        self._unlink(ad)
        return ad

    def _unlink(self, ad: Advertisement) -> None:
        """Drop one record's secondary-index entries (not ``_by_id``)."""
        of_model = self._by_model.get(ad.model_id)
        if of_model is not None:
            of_model.pop(ad.ad_id, None)
            if not of_model:
                del self._by_model[ad.model_id]
        indexer = self._indexes.get(ad.model_id)
        if indexer is not None:
            indexer.discard(ad)

    def discard(self, ad_id: str) -> Advertisement | None:
        """Delete by UUID if present; returns the record or ``None``."""
        if ad_id in self._by_id:
            return self.remove(ad_id)
        return None

    def by_service(self, service_node: str) -> list[Advertisement]:
        """All advertisements published by one service node (a full scan)."""
        owned = [ad for ad in self._by_id.values() if ad.service_node == service_node]
        return sorted(owned, key=lambda ad: ad.ad_id)

    def all(self) -> list[Advertisement]:
        """Every stored advertisement, ordered by UUID."""
        return [self._by_id[aid] for aid in sorted(self._by_id)]

    def of_model(self, model_id: str) -> list[Advertisement]:
        """Stored advertisements using one description model.

        Served from the per-model index — no full-store scan — in the
        same deterministic UUID order as before.
        """
        return [self._by_id[aid] for aid in sorted(self._by_model.get(model_id, ()))]

    def candidates(self, model_id: str, query: Any) -> list[Advertisement]:
        """Advertisements of one model plausibly matching ``query``.

        Routed through the model's concept indexer when one is attached
        and the query is indexable (a guaranteed superset of the true
        matches, in deterministic UUID order); otherwise the plain
        :meth:`of_model` linear scan — bit-identical results either way.
        """
        indexer = self._indexes.get(model_id)
        if indexer is not None:
            ids = indexer.candidate_ids(query)
            if ids is not None:
                return [self._by_id[aid] for aid in sorted(ids) if aid in self._by_id]
        return self.of_model(model_id)

    def ranked_candidates(
        self, model_id: str, query: Any
    ) -> Iterator[tuple[tuple[int, float], Iterable[Advertisement]]] | None:
        """Candidates grouped by descending ``(degree, score)`` upper bound.

        Thin resolution layer over the model indexer's
        :meth:`~repro.registry.index.ConceptIndexer.candidate_buckets`:
        yields its ``(bound, advertisements)`` groups, strongest first and
        in its ``ad_id`` order, for the evaluator's bounded top-k early
        termination. ``None``
        when no indexer is attached or the query cannot be ranked (the
        evaluator then uses :meth:`candidates`). Each group is a
        single-pass iterable that resolves ids to records only as it is
        iterated — a consumer that checks the bound and stops never
        materializes that group or any weaker one — so consume groups and
        iterator before mutating the store. A group may turn out empty
        (every id stale); the bound it carries is still valid.
        """
        indexer = self._indexes.get(model_id)
        if indexer is None:
            return None
        buckets = indexer.candidate_buckets(query)
        if buckets is None:
            return None
        lookup = self._by_id.get
        # ``filter(None, …)`` drops the ``None`` a stale id resolves to.
        return ((bound, filter(None, map(lookup, ad_ids))) for bound, ad_ids in buckets)

    def service_nodes(self) -> list[str]:
        """Service nodes with at least one stored advertisement (a full scan)."""
        return sorted({ad.service_node for ad in self._by_id.values()})

    def clear(self) -> None:
        """Drop all content (a registry crash loses volatile state)."""
        self._by_id.clear()
        self._by_model.clear()
        for indexer in self._indexes.values():
            indexer.reset()
