"""The advertisement store inside a registry node.

"Thick" storage, per the paper: registries "contain all the information in
the service advertisements, not just pointers to where the advertisements
are". Each stored advertisement occupies one dense integer *slot*: the
store's one ``ad_id -> slot`` map is the only place an id is resolved, and
the slot holds the record and, in per-slot columns, the lease backing it
(read and written by :class:`~repro.registry.leases.LeaseManager`), so a
lease leaves with its advertisement and a version upgrade keeps both slot
and lease. Pluggable :class:`~repro.registry.index.ConceptIndexer`
plug-ins (attached per model) keep their posting bitsets over the same
slots, so query evaluation scales with the candidate set rather than the
store size. There is no per-model or per-service-node id set (the indexed
path needs neither): :meth:`AdvertisementStore.of_model` and
:meth:`AdvertisementStore.by_service` scan the slots.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, Iterator, TYPE_CHECKING

from repro.errors import AdvertisementNotFoundError
from repro.registry.advertisements import Advertisement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.registry.index import ConceptIndexer


class AdvertisementStore:
    """In-memory advertisement storage: one slot per advertisement."""

    def __init__(self) -> None:
        self._slot_of: dict[str, int] = {}
        #: Per slot: the advertisement, ``None`` where free (a free slot is
        #: on ``_free`` until a put reuses it).
        self._ads: list[Advertisement | None] = []
        #: Per slot, its lease: the grant number (0 where the slot holds
        #: none), expiry, length, and the number ``n`` of its id
        #: ``lease-{n:06d}``.
        self._lease_grants = array("q")
        self._lease_expiries = array("d")
        self._lease_durations = array("d")
        self._lease_numbers = array("q")
        self._free: list[int] = []
        self._indexes: dict[str, "ConceptIndexer"] = {}

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, ad_id: str) -> bool:
        return ad_id in self._slot_of

    def attach_index(self, indexer: "ConceptIndexer") -> None:
        """Install (or replace) the concept indexer for one model.

        The indexer is reset onto the store's slot list — which bulk-loads
        the advertisements already stored for its model (the
        :meth:`~repro.registry.index.ConceptIndexer.reset` contract) — then
        kept current incrementally on every ``put``/``remove``/``clear``.
        """
        self._indexes[indexer.model_id] = indexer
        indexer.reset(self._ads)

    def index_for(self, model_id: str) -> "ConceptIndexer | None":
        """The attached concept indexer for one model, if any."""
        return self._indexes.get(model_id)

    def audit(self) -> list[str]:
        """Every attached indexer's bookkeeping violations (``core.invariants``)."""
        return [v for indexer in self._indexes.values() for v in indexer.audit()]

    def put(self, ad: Advertisement) -> Advertisement:
        """Insert or upgrade an advertisement.

        An existing record with the same UUID is replaced only by an equal
        or newer version (replication may deliver stale copies out of
        order), in its slot and beside its lease; the stored (possibly
        newer) record is returned.
        """
        slot = self._slot_of.get(ad.ad_id)
        if slot is None:
            if self._free:
                slot = self._free.pop()
                self._ads[slot] = ad
            else:
                slot = len(self._ads)
                self._ads.append(ad)
                self._lease_grants.append(0)
                self._lease_expiries.append(0.0)
                self._lease_durations.append(0.0)
                self._lease_numbers.append(0)
            self._slot_of[ad.ad_id] = slot
        else:
            existing = self._ads[slot]
            if existing.version > ad.version:
                return existing
            self._unlink(slot, existing)
            self._ads[slot] = ad
        indexer = self._indexes.get(ad.model_id)
        if indexer is not None:
            indexer.add(slot, ad)
        return ad

    def _slot(self, ad_id: str) -> int:
        try:
            return self._slot_of[ad_id]
        except KeyError:
            raise AdvertisementNotFoundError(f"unknown advertisement {ad_id!r}") from None

    def get(self, ad_id: str) -> Advertisement:
        """Fetch by UUID; raises :class:`AdvertisementNotFoundError`."""
        return self._ads[self._slot(ad_id)]

    def remove(self, ad_id: str) -> Advertisement:
        """Delete by UUID, lease and all; returns the removed record."""
        slot = self._slot(ad_id)
        ad = self._ads[slot]
        self._unlink(slot, ad)
        del self._slot_of[ad_id]
        self._ads[slot] = None
        self._lease_grants[slot] = 0
        self._free.append(slot)
        return ad

    def _unlink(self, slot: int, ad: Advertisement) -> None:
        """Drop one record's index entries (not its slot)."""
        indexer = self._indexes.get(ad.model_id)
        if indexer is not None:
            indexer.discard(slot, ad)

    def discard(self, ad_id: str) -> Advertisement | None:
        """Delete by UUID if present; returns the record or ``None``."""
        if ad_id in self._slot_of:
            return self.remove(ad_id)
        return None

    def by_service(self, service_node: str) -> list[Advertisement]:
        """All advertisements published by one service node (a full scan)."""
        owned = [ad for ad in self._ads if ad is not None and ad.service_node == service_node]
        return sorted(owned, key=lambda ad: ad.ad_id)

    def _resolve(self, ad_ids: Iterable[str]) -> list[Advertisement]:
        """Stored records by id, in UUID order."""
        ads, slot_of = self._ads, self._slot_of
        return [ads[slot_of[aid]] for aid in sorted(ad_ids)]

    def all(self) -> list[Advertisement]:
        """Every stored advertisement, ordered by UUID."""
        return self._resolve(self._slot_of)

    def of_model(self, model_id: str) -> list[Advertisement]:
        """Stored advertisements using one description model, ordered by
        UUID (a scan of the slots)."""
        owned = [ad for ad in self._ads if ad is not None and ad.model_id == model_id]
        return sorted(owned, key=lambda ad: ad.ad_id)

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
                return self._resolve(ids)
        return self.of_model(model_id)

    def ranked_candidates(
        self, model_id: str, query: Any
    ) -> Iterator[tuple[tuple[int, float], Iterable[Advertisement]]] | None:
        """Candidates grouped by descending ``(degree, score)`` upper bound.

        The model indexer's
        :meth:`~repro.registry.index.ConceptIndexer.candidate_buckets`:
        its ``(bound, advertisements)`` groups, strongest first and in
        ``ad_id`` order, for the evaluator's bounded top-k early
        termination. ``None`` when no indexer is attached or the query
        cannot be ranked (the evaluator then uses :meth:`candidates`).
        Each group is a single-pass iterable that expands its slots only
        as it is iterated — a consumer that checks the bound and stops
        never materializes that group or any weaker one — so consume
        groups and iterator before mutating the store.
        """
        indexer = self._indexes.get(model_id)
        return None if indexer is None else indexer.candidate_buckets(query)

    def clear(self) -> None:
        """Drop all content, leases included (a crash loses volatile state)."""
        self._slot_of.clear()
        self._ads.clear()
        for column in (self._lease_grants, self._lease_expiries,
                       self._lease_durations, self._lease_numbers):
            del column[:]
        self._free.clear()
        for indexer in self._indexes.values():
            indexer.reset(self._ads)
